"""alnet benchmark: one workload, one seed, one time window.

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run writes the workload's config from the seed
into ``.bench_work/<workload>/`` and then

* with ``--trace 0`` runs the workload through ``alnet.cli.run_cli`` in a
  closed loop for ``--seconds`` (at least two invocations), timing a
  fresh-process set-up before each, and reports the end-to-end metrics;
* with ``--trace 1`` runs untraced invocations for half the window, then
  traced ones for the other half, and reports the per-layer metrics.

Each invocation is checked against the workload's physics gates and must
repeat the first invocation's output bytes.  The second-to-last stdout
line is a JSON record of the run (machine, config, work, every
invocation); the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
RUN_LIMIT_S = 170.0
# About the median time of child.reference_kernel on the reference machine
# (2 vCPUs of an Intel Xeon under KVM; 0.114 s over 694 samples), so that
# normalised timings read as seconds at that machine's usual speed.
REFERENCE_S = 0.12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(work_dir: Path) -> dict:
    """Run the workload child in ``work_dir`` and return its record."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), "run", "spec.json"],
            cwd=work_dir,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the workload exceeded the {RUN_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"the workload child exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(record["alnet"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported alnet from {record['alnet']}, outside this checkout")
    return record


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "caches_per_core": caches,
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def speed_scale(record: dict, traced: bool = False) -> float:
    """Factor that turns the raw times of the (un)traced invocations into
    seconds at the reference machine's usual speed.

    The shared host's speed drifts by up to 2x over tens of seconds.  The
    reference kernel, timed before the first invocation and after each one,
    samples that speed through the window: the factor is ``REFERENCE_S``
    over its mean time.
    """
    refs = [r["reference_s"] for r in record["invocations"] if r["traced"] == traced]
    if not traced:
        refs.append(record["first_reference_s"])
    return REFERENCE_S / statistics.mean(refs)


def end_to_end(record: dict, work: dict) -> dict:
    """Normalised timings: the invocations' mean wall time, and the median
    set-up time, each times ``speed_scale``.  The raw times stay in the
    run's record."""
    inv = record["invocations"]
    scale = speed_scale(record)
    wall = statistics.mean(r["wall_s"] for r in inv) * scale
    metrics = {
        "norm_wall_s": wall,
        "norm_site_steps_per_s": work["site_steps"] / wall,
        "setup_s": statistics.median(r["setup_s"] for r in inv) * scale,
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    digits = [r["figures"]["accuracy_digits"] for r in inv if "accuracy_digits" in r.get("figures", {})]
    if digits:
        metrics["accuracy_digits"] = min(digits)
    return metrics


def per_layer(record: dict) -> dict:
    """Medians over the traced invocations; counts and bytes from the first.

    ``trace.wall_s`` is the median raw wall time of a traced invocation,
    which the layer self times add up to.  ``trace.overhead_s`` is the
    difference of the traced and untraced mean wall times, each normalised
    by its own half's ``speed_scale``, so that a change of host speed
    between the two halves does not show.
    """
    traced = [r["layers"] for r in record["invocations"] if "layers" in r]
    metrics = {}
    for key in traced[0] if traced else ():
        values = [t[key] for t in traced if key in t]
        exact = UNITS[key] in ("count", "B")
        metrics[key] = values[0] if exact else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(
        r["wall_s"] for r in record["invocations"] if r["traced"]
    )
    halves = [
        statistics.mean(r["wall_s"] for r in record["invocations"] if r["traced"] == traced)
        * speed_scale(record, traced)
        for traced in (False, True)
    ]
    metrics["trace.overhead_s"] = halves[1] - halves[0]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alnet" / "__init__.py").is_file():
        print(f"alnet benchmark: no alnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    config, work = workloads.generate(args.workload, args.seed)
    work_dir = WORK_DIR / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (work_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    spec = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "n_sites": work["n_sites"],
    }
    (work_dir / "spec.json").write_text(json.dumps(spec) + "\n")

    try:
        record = run_child(work_dir)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"alnet benchmark: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(record) if args.trace else end_to_end(record, work)
    inv = record["invocations"]
    failed = sum(1 for r in inv if r["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "why": WHY[args.workload],
        "machine": dict(machine(), numpy=record["numpy"]),
        "config": config,
        "work": work,
        "peak_rss_kb": record["peak_rss_kb"],
        "first_reference_s": record["first_reference_s"],
        "invocations": inv,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(inv),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    (work_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
