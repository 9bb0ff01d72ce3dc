"""Span tracing of alnet's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper at every module attribute that holds the original, so
a call made through any import path (``alnet.dynamics.step``,
``experiments.partial_norms`` via ``from .state import partial_norms``,
...) records a span.  Spans live in flat integer arrays (name, parent,
start ns, end ns, run id) until ``write`` dumps them.  The program's own
code is not changed.

A span's self time is its duration minus the durations of its direct
children, so the self times of one invocation sum to the root span's
duration.  Private helpers (``_rhs_flat``, ``_norm_series``, ...) are not
wrapped; their time is self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "io", "topology", "soliton", "dynamics", "state", "conserved", "experiments")

# metric name -> (traced function, statistic).  "self" and "total" are
# summed seconds of self and inclusive time, "p50_us" is the median
# inclusive duration of one call, "calls" the exact call count.
FUNCTION_METRICS = {
    "dynamics.step_self_s": ("dynamics.step", "self"),
    "dynamics.step_us_p50": ("dynamics.step", "p50_us"),
    "dynamics.step_calls": ("dynamics.step", "calls"),
    "state.assert_finite_s": ("state.assert_finite", "total"),
    "state.partial_norms_s": ("state.partial_norms", "total"),
    "state.partial_norms_calls": ("state.partial_norms", "calls"),
    "conserved.snapshot_self_s": ("conserved.snapshot", "self"),
    "conserved.snapshot_us_p50": ("conserved.snapshot", "p50_us"),
    "conserved.snapshot_calls": ("conserved.snapshot", "calls"),
    "conserved.universal_chain_field_s": ("conserved.universal_chain_field", "total"),
    "conserved.drift_audit_self_s": ("conserved.drift_audit", "self"),
    "experiments.scattering_run_self_s": ("experiments.scattering_run", "self"),
    "experiments.transmission_sweep_self_s": ("experiments.transmission_sweep", "self"),
    "experiments.runs": ("experiments.scattering_run", "calls"),
    "io.load_config_s": ("io.load_config", "total"),
    "io.write_outputs_s": ("io.write_outputs", "total"),
    "topology.coupling_coefficients_s": ("topology.coupling_coefficients", "total"),
    "soliton.soliton_profile_s": ("soliton.soliton_profile", "total"),
    "cli.run_cli_self_s": ("cli.run_cli", "self"),
}


class Tracer:
    """Records one span per call of every wrapped public function."""

    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._run = array("i")
        self._stack = [-1]
        self._run_id = [0]
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the public functions of every layer at all their bindings."""
        package = [m for n, m in sys.modules.items() if n == "alnet" or n.startswith("alnet.")]
        for layer in LAYERS:
            module = sys.modules[f"alnet.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for m in package:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, name, wrapper)
                            self._rebound.append((m, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._rebound):
            setattr(module, name, fn)
        self._rebound.clear()

    def begin_run(self, run_id: int) -> None:
        self._run_id[0] = run_id

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends, runs = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._run,
        )
        stack, run_id, clock = self._stack, self._run_id, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(run_id[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=np.int64) - np.frombuffer(self._start, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, dur, dur - child, np.frombuffer(self._run, dtype=np.int32)

    def run_metrics(self, run_id: int, wall_s: float, n_sites: int) -> dict[str, float]:
        """Per-layer metrics of one traced invocation that took ``wall_s``.

        Metrics of a function that no longer exists are left out rather
        than reported as zero; a function that exists but was not called
        reports zero.
        """
        name, dur, self_ns, runs = self._arrays()
        mine = runs == run_id
        name, dur, self_ns = name[mine], dur[mine], self_ns[mine]
        if np.any(self_ns < 0):
            raise RuntimeError("a span's children outlast it; spans are not nested")
        index = {n: i for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, (fn, stat) in FUNCTION_METRICS.items():
            if fn not in index:
                continue
            sel = name == index[fn]
            if stat == "calls":
                out[metric] = int(sel.sum())
            elif stat == "self":
                out[metric] = int(self_ns[sel].sum()) * 1e-9
            elif stat == "total":
                out[metric] = int(dur[sel].sum()) * 1e-9
            else:
                out[metric] = float(np.median(dur[sel])) * 1e-3 if sel.any() else 0.0
        if "dynamics.step" in index:
            sel = name == index["dynamics.step"]
            step_s = int(dur[sel].sum()) * 1e-9
            out["dynamics.site_steps_per_s"] = n_sites * int(sel.sum()) / step_s if step_s else 0.0
        attributed = 0
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
            layer_ns = int(self_ns[np.isin(name, ids)].sum())
            out[f"{layer}.self_s"] = layer_ns * 1e-9
            attributed += layer_ns
        out["unattributed_s"] = wall_s - attributed * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Dump every span as CSV: run, span, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{self._run[i]},{i},{self._parent[i]},{self.names[self._name[i]]},"
                    f"{self._start[i]},{self._end[i]}\n"
                )
