"""Child process of the benchmark.

    python3 child.py setup CONFIG
        Time a fresh-process import of alnet plus load_config,
        coupling_coefficients and soliton_profile; print {"setup_s": ...}.

    python3 child.py run SPEC
        Run one workload through alnet.cli.run_cli in a closed loop (one
        invocation at a time) from the working directory, which holds
        config.json; print one JSON record.

The SPEC file names the workload, its site count, the time window and
whether to trace.  Every invocation starts from an empty output directory,
is timed around run_cli alone, and is then checked: exit code 0, every
physics gate, and the same output digest as the first invocation.  Before
each untraced invocation a fresh ``setup`` process is timed, so the set-up
samples are spread over the window like the invocations.  The reference
kernel is timed before the first invocation and after each one, so its
samples of the host's speed span the same stretch as the invocations.  A
traced run first measures untraced invocations for half the window, then
installs the tracer and measures traced ones for the other half.  A new
invocation starts only while it is expected to end inside the window.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(config_path: str) -> None:
    t0 = time.perf_counter()
    import alnet
    from alnet.io import load_config
    from alnet.soliton import soliton_profile
    from alnet.topology import coupling_coefficients

    config = load_config(config_path)
    coupling_coefficients(config.topology)
    soliton_profile(config.soliton, config.topology)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "alnet": alnet.__file__}))


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    It touches nothing of alnet, so its time tracks only the speed the host
    gives this process at the moment: on a shared host that speed drifts
    by up to 2x over tens of seconds.  The mix resembles alnet's per-step
    work: Python-level bookkeeping and numpy calls on ~1k-element arrays.
    """
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
        table[i & 1023] = acc
    y = np.full(1200, 0.1 + 0.1j)
    left = np.roll(np.arange(1200), 1)
    right = np.roll(np.arange(1200), -1)
    for _ in range(2000):
        y = y + 1e-4j * (y[left] + y[right]) * (1 + (y.real**2 + y.imag**2))
    return time.perf_counter() - t0


def run(spec_path: str) -> None:
    import contextlib
    import gc
    import io
    import resource
    import shutil
    import subprocess

    import numpy

    import alnet.cli
    import workloads
    from tracer import Tracer

    spec = json.loads(Path(spec_path).read_text())
    config = json.loads(Path("config.json").read_text())
    out = Path(config["out"])
    argv = [workloads.WORKLOADS[spec["workload"]].command, "--config", "config.json"]
    invocations: list[dict] = []

    def probe_setup() -> float:
        proc = subprocess.run(
            [sys.executable, __file__, "setup", "config.json"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        return json.loads(proc.stdout)["setup_s"]

    def invoke(tracer: Tracer | None) -> None:
        setup_s = None if spec["trace"] else probe_setup()
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        run_id = len(invocations)
        if tracer is not None:
            tracer.begin_run(run_id)
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = alnet.cli.run_cli(argv)
        except Exception as exc:  # a crash is a failed run, not a failed benchmark
            code, error = None, repr(exc)
        wall = time.perf_counter() - t0
        rec = {"traced": tracer is not None, "wall_s": wall, "exit_code": code, "failures": []}
        rec["reference_s"] = reference_kernel()
        if setup_s is not None:
            rec["setup_s"] = setup_s
        if error is not None:
            rec["failures"].append(f"exception {error}")
        elif code != 0:
            rec["failures"].append(f"exit code {code}")
        else:
            figures, failed = workloads.check(spec["workload"], out, config)
            rec["figures"] = figures
            rec["failures"] += failed
            rec["digest"], rec["files_written"], rec["bytes_written"] = workloads.digest(out)
            first = next((r["digest"] for r in invocations if "digest" in r), rec["digest"])
            if rec["digest"] != first:
                rec["failures"].append("output differs from the first invocation's bytes")
        if tracer is not None and code is not None:
            rec["layers"] = tracer.run_metrics(run_id, wall, spec["n_sites"])
            for key in ("files_written", "bytes_written"):
                if key in rec:
                    rec["layers"][f"io.{key}"] = rec[key]
        invocations.append(rec)

    def loop(window: float, min_runs: int, tracer: Tracer | None) -> None:
        """Invoke at least ``min_runs`` times, then while the next one should end in the window."""
        start = time.perf_counter()
        done = 0
        while done < min_runs or (time.perf_counter() - start) * (done + 1) / done <= window:
            invoke(tracer)
            done += 1

    first_reference = reference_kernel()
    if spec["trace"]:
        loop(spec["seconds"] / 2, 1, None)
        tracer = Tracer()
        tracer.install()
        loop(spec["seconds"] / 2, 2, tracer)
        tracer.uninstall()
        tracer.write(Path("spans.csv"))
        traced = [r for r in invocations if r["traced"]]
        counts = [k for k in ("dynamics.step_calls", "conserved.snapshot_calls", "io.bytes_written")
                  if k in traced[0].get("layers", {})]
        for rec in traced[1:]:
            for key in counts:
                if rec.get("layers", {}).get(key) != traced[0]["layers"][key]:
                    rec["failures"].append(f"{key} differs between traced invocations")
    else:
        loop(spec["seconds"], 2, None)
    record = {
        "invocations": invocations,
        "first_reference_s": first_reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "alnet": alnet.cli.__file__,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(arg)
    elif mode == "run":
        run(arg)
    else:
        sys.exit(f"unknown mode {mode!r}")
