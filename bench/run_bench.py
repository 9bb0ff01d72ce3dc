"""Per-layer and end-to-end timings of alnet, written as one JSON file.

    PYTHONPATH=src python bench/run_bench.py --out bench/BENCH_<n>.json

Layer rows time one call of ``step``, ``snapshot`` (m_max 6),
``partial_norms``, ``peak_tracker`` (one state, one leaf) and
``write_outputs`` (one snapshot file) on a soliton state of the
(1, 1.5, 3) star at n = 600, 1200, 6000 and 60000 sites.  Each of
``LAYER_REPEATS`` repeats times a batch of calls long enough to read (at
least ``BATCH_S``) and reports the mean per call.  The ``evolve`` row
runs the big-star launch (n = 60000, n0 = -150, ``EVOLVE_STEPS`` steps,
output stride 100) to its end and reports microseconds per step: the
steps run on the window of sites that are not exact zeros, so this row
shows what ``step`` alone at 60000 sites does not.  End-to-end rows run
each ``configs/*.json`` ``E2E_REPEATS`` times through
``alnet.cli.run_cli``, each in a fresh process (so the ~0.3 s import is
included), and record its wall time and its peak resident set size, the
process's own ``VmHWM`` (Linux).  Every row gives the median, the spread
(min and max), the number of repeats and the host; timings come from
``time.perf_counter``.  A last end-to-end row times the tier-1 suite
(the tier-1 command of ROADMAP.md, run from the checkout root) the same
way.  The two regimes stay apart: at the paper's sizes
a step pays for numpy call overhead, at 60k sites for memory traffic.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from alnet import (  # noqa: E402
    RunOutputs,
    SimConfig,
    SolitonParams,
    build_star,
    coupling_coefficients,
    evolve,
    partial_norms,
    peak_tracker,
    snapshot,
    soliton_profile,
    step,
    write_outputs,
)
from alnet.dynamics import StepWorkspace  # noqa: E402

TRUNCATIONS = (200, 400, 2000, 20000)  # n = 3 * truncation sites
GAMMAS = (1.0, 1.5, 3.0)
LAYER_REPEATS = 7  # batches per layer row
BATCH_S = 0.1  # least seconds per batch
E2E_REPEATS = 3  # CLI runs per config
EVOLVE_STEPS = 400  # the big-star run: t_final 4 at dt 0.01
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def host() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{platform.node()} ({cpu}, {os.cpu_count()} CPUs, Python {platform.python_version()})"


def row(name: str, samples: list[float], unit: str, machine: str, **extra) -> dict:
    return {
        "name": name,
        **extra,
        "unit": unit,
        "median": statistics.median(samples),
        "spread": [min(samples), max(samples)],
        "repeats": len(samples),
        "host": machine,
    }


def per_call_us(call) -> tuple[list[float], int]:
    """Mean microseconds per call over ``LAYER_REPEATS`` batches of at least ``BATCH_S`` each."""
    call()  # warm caches and lazily built tables
    start = time.perf_counter()
    call()
    once = max(time.perf_counter() - start, 1e-7)
    calls = max(1, math.ceil(BATCH_S / once))
    samples = []
    for _ in range(LAYER_REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return samples, calls


def layer_rows(machine: str, scratch: Path) -> list[dict]:
    rows = []
    for truncation in TRUNCATIONS:
        top = build_star(GAMMAS, truncation)
        soliton = SolitonParams(alpha=5 * math.pi / 4, beta=0.1, n0=-truncation / 2)
        state = soliton_profile(soliton, top)
        couplings = coupling_coefficients(top)
        workspace = StepWorkspace(state.data.shape)
        outputs = RunOutputs(summary={}, snapshots=((0.0, state),), topology=top)
        calls = {
            "step": lambda: step(state, couplings, SimConfig().dt, workspace),
            "snapshot": lambda: snapshot(state, top, m_max=6),
            "partial_norms": lambda: partial_norms(state, top),
            "peak_tracker": lambda: peak_tracker((state,), top, "11"),
            "write_outputs": lambda: write_outputs(outputs, scratch / "layer"),
        }
        for name, call in calls.items():
            samples, batch = per_call_us(call)
            rows.append(
                row(name, samples, "us", machine, n_sites=top.n_sites, calls_per_repeat=batch)
            )
            print(f"{name:14s} n={top.n_sites:6d} {rows[-1]['median']:12.1f} us", file=sys.stderr)
    return rows + [evolve_row(machine)]


def evolve_row(machine: str) -> dict:
    """Microseconds per step of the big-star run, launch to end, through ``evolve``."""
    top = build_star(GAMMAS, 20000)
    state = soliton_profile(SolitonParams(alpha=5 * math.pi / 4, beta=0.1, n0=-150.0), top)
    couplings = coupling_coefficients(top)
    config = SimConfig(dt=0.01, t_final=EVOLVE_STEPS * 0.01, output_stride=100)
    samples, batch = per_call_us(lambda: sum(1 for _ in evolve(state, couplings, config)))
    per_step = [s / EVOLVE_STEPS for s in samples]
    result = row("evolve", per_step, "us per step", machine, n_sites=top.n_sites,
                 calls_per_repeat=batch, steps=EVOLVE_STEPS)
    print(f"{'evolve':14s} n={top.n_sites:6d} {result['median']:12.1f} us per step", file=sys.stderr)
    return result


# The child reports its own high-water mark: ru_maxrss from wait4 or
# getrusage would also count the pages of the bench process it was forked
# from, which Linux carries across exec.
CHILD = """\
import sys
from alnet.cli import run_cli
code = run_cli(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM")), file=sys.stderr)
sys.exit(code)
"""


def cli_run(config: Path, out: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one CLI run in a fresh process."""
    experiment = json.loads(config.read_text())["experiment"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    argv = [sys.executable, "-c", CHILD, experiment, "--config", str(config), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{config.name} exited {proc.returncode}: {proc.stderr}")
    shutil.rmtree(out)
    return wall, int(proc.stderr.split()[-1]) / 1024.0  # VmHWM is in kB


def end_to_end_rows(machine: str, scratch: Path) -> list[dict]:
    rows = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        walls, peaks = [], []
        for _ in range(E2E_REPEATS):
            wall, peak = cli_run(config, scratch / "e2e")
            walls.append(wall)
            peaks.append(peak)
        name = f"cli {config.name}"
        rows.append(row(name, walls, "s", machine, metric="wall"))
        rows.append(row(name, peaks, "MB", machine, metric="peak_rss"))
        print(f"{name:24s} {statistics.median(walls):6.2f} s {statistics.median(peaks):7.1f} MB",
              file=sys.stderr)
    return rows


TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1_rows(machine: str) -> list[dict]:
    """Wall time of the tier-1 suite, ``E2E_REPEATS`` runs, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls = []
    for _ in range(E2E_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"tier-1 exited {proc.returncode}: {proc.stdout[-2000:]}")
    summary = proc.stdout.strip().splitlines()[-1]
    print(f"{'tier-1':24s} {statistics.median(walls):6.2f} s ({summary})", file=sys.stderr)
    return [row("tier-1", walls, "s", machine, metric="wall", last_summary=summary)]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    machine = host()
    with tempfile.TemporaryDirectory(prefix="alnet-bench-") as tmp:
        scratch = Path(tmp)
        layers = layer_rows(machine, scratch)
        e2e = end_to_end_rows(machine, scratch) + tier1_rows(machine)
    result = {
        "host": machine,
        "timer": "time.perf_counter",
        "layer_rows": layers,
        "end_to_end_rows": e2e,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main()
