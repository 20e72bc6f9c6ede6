"""Spans at the package's module boundaries, recorded from outside the package.

The tracer replaces each public function of the traced modules with a thin
wrapper, under every name its callers look up: ``atomlaser`` calls
``q_table_scaled_grid`` through its own namespace, ``airyq`` calls
``airy_scaled_grid`` through its own, so both bindings are wrapped.  Nothing
inside the package changes; the wrappers are removed after each traced round.

A span holds the layer, the function name, start and end times, the index
of the span that caused it and an optional work count (Airy points, pixels,
spectrum points).  Spans stay in memory and are written once, at the end.
A layer's self time is its span's duration minus the part covered by its
direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

#: Modules whose public functions are traced, in layer order.
LAYERS = ("specfun", "airyq", "harmonics", "ballistic", "atomlaser",
          "freespace", "semiclassical", "cli")

_AIRY_POINT_FUNCS = {"airy", "airy_scaled", "airy_unrestricted", "airy_ci",
                     "airy_deriv_n", "airy_derivs_upto", "airy_integral"}
_Q_SCALAR = {"q", "q0", "q_neg", "q_scaled", "q_grad", "q_grad_scaled"}
_QI = {"qi", "qi_scaled", "qi_half", "qi_asym"}
_GREEN = {"green_lm", "green_lm_grad", "green_swave", "green_lm_far", "scattering_wave"}
_GRID = {"beam_density_grid", "lattice_beam_grid", "farfield_density"}
_SPECTRUM = {"lattice_spectrum", "gaussian_multipole_current", "vortex_current_1m",
             "perp_vortex_current"}
_AL_SCALAR = {"lattice_beam", "beam_psi_00", "beam_psi_1m", "beam_psi_perp"}


#: Every per-layer metric with its unit (the traced run reports all of them).
METRIC_UNITS = {
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "specfun.airy_points": "count",
    "specfun.self_s": "s",
    "specfun.ns_per_point": "ns",
    "airyq.grid_calls": "count",
    "airyq.grid_point_orders": "count",
    "airyq.grid_self_s": "s",
    "airyq.grid_table_mb": "MB",
    "airyq.scalar_calls": "count",
    "airyq.scalar_us_per_call": "us",
    "airyq.stability_warnings": "count",
    "airyq.qi_calls": "count",
    "airyq.qi_mp_calls": "count",
    "airyq.qi_self_s": "s",
    "airyq.qi_us_per_call": "us",
    "harmonics.calls": "count",
    "harmonics.self_s": "s",
    "ballistic.green_calls": "count",
    "ballistic.green_us_per_call": "us",
    "ballistic.profile_pixels": "count",
    "ballistic.profile_self_s": "s",
    "ballistic.current_matrix_calls": "count",
    "ballistic.current_matrix_self_s": "s",
    "atomlaser.grid_pixels": "count",
    "atomlaser.lattice_components": "count",
    "atomlaser.assembly_self_s": "s",
    "atomlaser.spectrum_points": "count",
    "atomlaser.spectrum_self_s": "s",
    "atomlaser.scalar_calls": "count",
    "atomlaser.scalar_self_s": "s",
    "freespace.calls": "count",
    "freespace.self_s": "s",
    "semiclassical.calls": "count",
    "semiclassical.self_s": "s",
    "cli.commands": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "cli.ns_per_byte": "ns",
    "trace.overhead_s": "s",
}


def _count(name: str, args, result) -> int:
    """Work count recorded on a span (0 where the function has none)."""
    if name == "airy_scaled_grid":
        return int(np.size(args[0]))
    if name in _AIRY_POINT_FUNCS:
        return 1
    if name == "q_table_scaled_grid":
        table, logscale = result
        return int(np.size(logscale)) * len(table)  # points x orders
    if name == "photodetachment_profile" or name in _GRID:
        return int(np.size(result.values))
    if name == "lattice_spectrum":
        return len(result)
    return 0


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    UNITS = METRIC_UNITS

    def __init__(self, package, modules: dict):
        self.spans: list[list] = []  # [layer, name, t0, t1, parent, count]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._package = package
        self._modules = modules
        self._targets = self._find_targets()

    def _find_targets(self):
        """(owner namespace, attribute, layer, function) for every binding."""
        funcs = {}
        for layer in LAYERS:
            mod = self._modules[layer]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    funcs[id(obj)] = (layer, name, obj)
        targets = []
        for ns in list(self._modules.values()) + [self._package]:
            for attr, obj in list(vars(ns).items()):
                hit = funcs.get(id(obj))
                if hit is not None:
                    targets.append((ns, attr, hit[0], hit[2]))
        return targets

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[5] = _count(name, args, result)
                return result
            finally:
                rec[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for ns, attr, layer, fn in self._targets:
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(layer, fn)
            self._patches.append((ns, attr, fn))
            setattr(ns, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for ns, attr, fn in self._patches:
            setattr(ns, attr, fn)
        self._patches.clear()

    def span(self, layer: str, name: str, count: int = 0):
        """Context manager for a span opened by the benchmark itself."""
        return _OwnSpan(self, layer, name, count)

    def metrics(self, first: int, last: int) -> dict:
        """Layer metrics over spans[first:last] (one traced round)."""
        spans = self.spans
        child = {}
        for i in range(first, last):
            p = spans[i][4]
            if p >= 0:
                child[p] = child.get(p, 0.0) + spans[i][3] - spans[i][2]
        m = {k: 0.0 for k in METRIC_UNITS}
        incl = {"scalar": 0.0, "qi": 0.0, "green": 0.0}
        for i in range(first, last):
            layer, name, t0, t1, parent, count = spans[i]
            dur = t1 - t0
            self_s = dur - child.get(i, 0.0)
            p_layer = spans[parent][0] if parent >= 0 else None
            p_name = spans[parent][1] if parent >= 0 else None
            top = p_layer != layer  # first span of this layer on the call path
            if layer == "specfun":
                m["specfun.self_s"] += self_s
                if top:
                    m["specfun.airy_points"] += count
            elif layer == "airyq":
                if name == "q_table_scaled_grid":
                    m["airyq.grid_calls"] += 1
                    m["airyq.grid_point_orders"] += count
                    m["airyq.grid_self_s"] += self_s
                    m["airyq.grid_table_mb"] = max(m["airyq.grid_table_mb"], count * 16 / 1e6)
                    if p_name == "lattice_beam_grid":
                        m["atomlaser.lattice_components"] += 1
                elif name in _QI:
                    m["airyq.qi_self_s"] += self_s
                    if top:
                        m["airyq.qi_calls"] += 1
                        incl["qi"] += dur
                elif name in _Q_SCALAR and top:
                    m["airyq.scalar_calls"] += 1
                    incl["scalar"] += dur
            elif layer == "harmonics":
                m["harmonics.self_s"] += self_s
                if top:
                    m["harmonics.calls"] += 1
            elif layer == "ballistic":
                if name in _GREEN and (top or p_name not in _GREEN):
                    m["ballistic.green_calls"] += 1
                    incl["green"] += dur
                elif name == "photodetachment_profile":
                    m["ballistic.profile_pixels"] += count
                    m["ballistic.profile_self_s"] += self_s
                elif name == "total_current_matrix":
                    m["ballistic.current_matrix_calls"] += 1
                    m["ballistic.current_matrix_self_s"] += self_s
            elif layer == "atomlaser":
                if name in _GRID:
                    m["atomlaser.grid_pixels"] += count
                    m["atomlaser.assembly_self_s"] += self_s
                elif name in _SPECTRUM:
                    m["atomlaser.spectrum_self_s"] += self_s
                    if name == "lattice_spectrum":
                        m["atomlaser.spectrum_points"] += count
                    elif top:
                        m["atomlaser.spectrum_points"] += 1
                elif name in _AL_SCALAR:
                    m["atomlaser.scalar_self_s"] += self_s
                    if top:
                        m["atomlaser.scalar_calls"] += 1
            elif layer in ("freespace", "semiclassical"):
                m[f"{layer}.self_s"] += self_s
                if top:
                    m[f"{layer}.calls"] += 1
            elif layer == "cli" and name == "command":
                m["cli.commands"] += 1
                m["cli.self_s"] += self_s
                m["cli.bytes_written"] += count
        m["specfun.ns_per_point"] = _ratio(m["specfun.self_s"] * 1e9, m["specfun.airy_points"])
        m["airyq.scalar_us_per_call"] = _ratio(incl["scalar"] * 1e6, m["airyq.scalar_calls"])
        m["airyq.qi_us_per_call"] = _ratio(incl["qi"] * 1e6, m["airyq.qi_calls"])
        m["ballistic.green_us_per_call"] = _ratio(incl["green"] * 1e6, m["ballistic.green_calls"])
        m["cli.ns_per_byte"] = _ratio(m["cli.self_s"] * 1e9, m["cli.bytes_written"])
        return m

    def dump(self, path) -> None:
        """Write every recorded span once, as JSON lines of fields."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "name", "t0", "t1", "parent", "count"],
                       "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _OwnSpan:
    def __init__(self, tracer: Tracer, layer: str, name: str, count: int):
        self.tracer, self.rec = tracer, [layer, name, 0.0, 0.0, -1, count]

    def __enter__(self):
        stack, spans = self.tracer._stack, self.tracer.spans
        self.rec[4] = stack[-1] if stack else -1
        self.rec[2] = time.perf_counter()
        stack.append(len(spans))
        spans.append(self.rec)
        return self.rec

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False
