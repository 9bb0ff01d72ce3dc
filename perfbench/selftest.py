"""Self-test of the alnet benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks, for each workload with
seed ``SEED``:

1. the generator is deterministic in the seed, and its config passes
   every physics gate with byte-identical repeats (each traced run has
   ``correct`` true and no failed invocation);
2. the count metrics ``dynamics.step_calls``, ``conserved.snapshot_calls``
   and ``io.bytes_written`` repeat exactly across two traced runs, and
   ``dynamics.step_calls`` equals the generator's step count;
3. per-layer self times are non-negative, and the layers account for the
   wall time of every traced invocation: ``unattributed_s`` (wall time
   minus the summed self times) is non-negative and under
   ``UNATTRIBUTED_SHARE`` of it.  That fails if the root ``run_cli`` span
   is missed or if spans do not nest.

It also checks that the benchmark refuses to run, printing nothing on
stdout, from a directory holding only BENCHMARK.json and perfbench/.
Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COUNTS = ("dynamics.step_calls", "conserved.snapshot_calls", "io.bytes_written")
SEED = 7
UNATTRIBUTED_SHARE = 0.01


def traced_run(name: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=400,
        check=True,
    )
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def check_workload(name: str, seed: int) -> list[str]:
    problems = []
    config, work = workloads.generate(name, seed)
    if workloads.generate(name, seed) != (config, work):
        problems.append("generator is not deterministic in the seed")
    if workloads.generate(name, seed + 1)[0] == config:
        problems.append("another seed gives the same config")
    runs = [traced_run(name, seed) for _ in range(2)]
    for detail, result in runs:
        if not result["correct"] or result["failed"]:
            failures = [f for r in detail["invocations"] for f in r["failures"]]
            problems.append(f"failed invocations: {failures}")
        for inv in detail["invocations"]:
            layers = inv.get("layers")
            if layers is None:
                continue
            selfs = [layers[f"{layer}.self_s"] for layer in LAYERS]
            if min(selfs) < 0:
                problems.append(f"negative self time: {selfs}")
            rest = layers["unattributed_s"]
            if not 0 <= rest < UNATTRIBUTED_SHARE * inv["wall_s"]:
                problems.append(f"layers leave {rest:.6f} s of {inv['wall_s']:.6f} s unattributed")
    first, second = (result["metrics"] for _, result in runs)
    for key in COUNTS:
        if first[key]["value"] != second[key]["value"]:
            problems.append(f"{key} {first[key]['value']} != {second[key]['value']}")
    steps = first["dynamics.step_calls"]["value"]
    if steps != work["steps_per_run"] * work["runs"]:
        problems.append(f"{steps} step calls, generator expects {work['steps_per_run'] * work['runs']}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "fig4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit code {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    checks = [(f"workload {w}", lambda w=w: check_workload(w, SEED)) for w in workloads.WORKLOADS]
    checks.append(("bare directory is refused", check_bare_directory))
    ok = True
    for label, check in checks:
        problems = check()
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {label}" + "".join(f"\n  {p}" for p in problems))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
