"""Byte-compare what two alnet source trees write for the same runs.

    python bench/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``alnet`` package, such as a
checkout's ``src``.  Both trees run the eight sample commands of README.md
on this checkout's ``configs/`` and seed 7 of every perfbench workload
(configs from ``perfbench/workloads.generate``), each run in a fresh
process with its own output directory.  Every output file is compared
byte for byte, except ``config_echo.json``, whose ``out`` field names the
directory and is left out of its comparison; the exit codes and the file
lists must match too.  Five refusal cases follow, each on a config
written next to the workload configs: both trees must exit with the
case's code and write no file.  Prints one line per run and exits 1 on
any difference, 0 when every byte is the same.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SAMPLE_COMMANDS = (
    "bifurcation --config configs/fig4.json",
    "conserved-audit --config configs/fig4.json --t-final 163 --m-max 3",
    "broken-rule --config configs/broken_rule.json",
    "sweep --config configs/sweep.json",
    "simulate --config configs/chain.json",
    "conserved-audit --config configs/tree_audit.json",
    "conserved-audit --config configs/broken_rule.json --t-final 163 --m-max 6",
    "simulate --config configs/big_star.json",
)
WORKLOAD_SEED = 7
# (subcommand, sample config, config entries changed, the exit code both trees must give);
# a dict entry updates its section, any other value replaces the entry
REFUSALS = (
    ("broken-rule", "fig4.json", {}, 1),  # the sum rule holds
    ("bifurcation", "fig4.json", {"soliton": {"alpha": 0.0}}, 3),  # v = -0 misses the vertex
    ("broken-rule", "broken_rule.json", {"soliton": {"alpha": 0.0}}, 3),
    ("bifurcation", "fig4.json", {"soliton": {"n0": 20.0}}, 3),  # launched past the vertex
    ("sweep", "sweep.json", {"snapshot_times": [200.0]}, 1),  # past the derived end, 142
)


def runs(work: Path) -> dict[str, tuple[list[str], int | None]]:
    """Each run's name, CLI arguments and required exit code (None: any, the same on both).

    Writes the workload and refusal configs under ``work``.
    """
    out = {}
    for i, command in enumerate(SAMPLE_COMMANDS):
        args = command.split()
        args[args.index("--config") + 1] = str(ROOT / args[args.index("--config") + 1])
        out[f"readme-{i + 1}:{command}"] = args, None
    for name, workload in workloads.WORKLOADS.items():
        config, _ = workloads.generate(name, WORKLOAD_SEED)
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        out[f"{name}:seed {WORKLOAD_SEED}"] = [workload.command, "--config", str(path)], None
    for i, (command, sample, changes, code) in enumerate(REFUSALS):
        config = json.loads((ROOT / "configs" / sample).read_text())
        for key, value in changes.items():
            config[key] = dict(config[key], **value) if isinstance(value, dict) else value
        path = work / f"refusal-{i + 1}.json"
        path.write_text(json.dumps(config))
        out[f"refusal-{i + 1}:{command} {sample} {changes}"] = [command, "--config", str(path)], code
    return out


def run(src: Path, args: list[str], out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "alnet.cli", *args, "--out", str(out)],
        env=env, cwd=out.parent, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode:
        print(f"  {src}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode


def content(path: Path) -> bytes | dict:
    if path.name == "config_echo.json":
        echo = json.loads(path.read_text())
        echo.pop("out", None)
        return echo
    return path.read_bytes()


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between two output directories."""
    files = {
        root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)
    }
    return sorted(
        str(rel)
        for rel in files[a] | files[b]
        if rel not in files[a] or rel not in files[b] or content(a / rel) != content(b / rel)
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for src in trees:
        if not (src / "alnet" / "__init__.py").is_file():
            print(f"no alnet package under {src}", file=sys.stderr)
            return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, (name, (args, code)) in enumerate(runs(work).items()):
            outs = [work / f"run{i}" / side / "out" for side in ("parent", "change")]
            codes = []
            for src, out in zip(trees, outs):
                out.parent.mkdir(parents=True)
                codes.append(run(src, args, out))
            diff = differences(*outs)
            if codes[0] != codes[1]:
                diff.insert(0, f"exit codes {codes[0]} and {codes[1]}")
            n_files = sum(1 for p in outs[0].rglob("*") if p.is_file())
            if code is not None and (codes != [code, code] or any(out.exists() for out in outs)):
                diff.insert(0, f"must exit {code} and write nothing: exit codes {codes}")
            print(f"{'DIFFERS' if diff else 'same'}  {name} ({n_files} files)")
            for line in diff:
                print(f"  {line}")
            failed += bool(diff)
    print(f"{failed} of {i + 1} runs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
