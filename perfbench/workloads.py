"""Seeded workload configs and the physics gates each run must pass.

Every workload is one ``alnet`` subcommand on a config written here from
the seed.  The seed draws a global phase ``phi0`` uniformly from [0, 2 pi)
and a sub-site shift of the launch site ``n0`` uniformly from [0, 1), so
runs with different seeds integrate different (equally valid) solitons.
The program only ever sees the config file.

The gates are the repository's acceptance criteria, evaluated on the files
the CLI writes.  ``check`` returns the accuracy figures and the list of
failed gates; it never raises on a bad output, so a failed gate counts as a
failed run instead of aborting the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALPHA = 5 * math.pi / 4
BETA = 0.1
DT = 0.01
VELOCITY = -(2.0 / BETA) * math.sinh(BETA) * math.sin(ALPHA)
OUTPUT_STRIDE = 100
# The scattering drivers stop once the transmitted peak sits this many
# sites past the deepest vertex (MEASUREMENT_MARGIN + TAIL_EXTRA in
# alnet.experiments), rounded up to whole output intervals.
PEAK_TARGET_SITES = 80
# Every fourth ratio of the CLI's default 9-point grid: the same family of
# same-shape stars at a third of the cost, so a 27 s window holds about
# five invocations, each with its own host-speed samples.
SWEEP_GRID = (0.1, 0.5, 0.9)

TRANSMISSION_GATE = 1e-3
REFLECTION_GATE = 1e-4
UNITARITY_GATE = 1e-3
NORM_GATE = 1e-6
DRIFT_GATE = 1e-6
MAX_DIGITS = 9.0


def scattering_steps(n0: float) -> int:
    """RK4 steps of a star scattering run launched at ``n0``."""
    interval = DT * OUTPUT_STRIDE
    raw = (PEAK_TARGET_SITES - n0) / VELOCITY
    t_final = math.ceil(raw / interval - 1e-9) * interval
    return round(t_final / DT)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI subcommand on a seeded config.

    ``make(rng)`` returns the config and the work it implies as
    ``(config, n_sites, steps_per_run, runs)``; the invocation performs
    ``n_sites * steps_per_run * runs`` site updates of the RK4 kernel.
    """

    name: str
    command: str
    make: Callable[[random.Random], tuple[dict, int, int, int]]
    check: Callable[[Path, dict], tuple[dict, list[str]]]


def _soliton(rng: random.Random, n0: float) -> dict:
    phi0 = rng.uniform(0.0, 2.0 * math.pi)
    return {"alpha": ALPHA, "beta": BETA, "n0": n0 + rng.random(), "phi0": phi0}


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _norm_error(total_norm: float) -> float:
    """Relative error against the exact soliton norm 2 beta / gamma1 (gamma1 = 1)."""
    exact = 2.0 * BETA
    return abs(total_norm - exact) / exact


def _gate(figures: dict, gates: dict[str, float]) -> tuple[dict, list[str]]:
    """Compare figures with their gates and add ``accuracy_digits``.

    A figure's digits are -log10 of its share of its gate: how many decimal
    digits it stays below the gate, capped at ``MAX_DIGITS`` so that an
    exact zero counts as a finite margin.  ``accuracy_digits`` is the mean
    over every gated figure, so a loss in any of them moves it.  The raw
    figures move by ~20% with the seed's sub-site shift (the measurement
    horizon is quantised to whole output intervals), their digits by ~2%.
    """
    failed = [f"{k} {figures[k]:.3e} >= {g:g}" for k, g in gates.items() if not figures[k] < g]
    digits = [-math.log10(max(figures[k] / g, 10.0**-MAX_DIGITS)) for k, g in gates.items()]
    figures["accuracy_digits"] = sum(digits) / len(digits)
    return figures, failed


# -- fig4 --------------------------------------------------------------------


def _make_fig4(rng):
    sol = _soliton(rng, -150.0)
    config = {
        "experiment": "bifurcation",
        "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 400},
        "soliton": sol,
        "sim": {"dt": DT, "t_final": None, "output_stride": OUTPUT_STRIDE},
        "out": "out",
        "m_max": 3,
        "snapshot_times": [0.0, 80.0, 163.0],
    }
    return config, 1200, scattering_steps(sol["n0"]), 1


def _check_fig4(out: Path, config: dict):
    s = _read_json(out / "summary.json")
    figures = {
        "transmission_err": max(
            abs(s["transmissions"][leaf] - s["predicted_transmissions"][leaf])
            for leaf in s["predicted_transmissions"]
        ),
        "reflection": s["reflection"],
        "norm_drift": _norm_error(s["total_norm"]),
    }
    figures, failed = _gate(
        figures,
        {
            "transmission_err": TRANSMISSION_GATE,
            "reflection": REFLECTION_GATE,
            "norm_drift": NORM_GATE,
        },
    )
    steps = round(s["measurement_time"] / config["sim"]["dt"])
    if steps != scattering_steps(config["soliton"]["n0"]):
        failed.append(f"measurement horizon {steps} steps differs from the generator's")
    return figures, failed


# -- sweep -------------------------------------------------------------------


def _make_sweep(rng):
    sol = _soliton(rng, -120.0)
    config = {
        "experiment": "sweep",
        "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 300},
        "soliton": sol,
        "sim": {"dt": DT, "output_stride": OUTPUT_STRIDE},
        "out": "out",
        "ratios": list(SWEEP_GRID),
    }
    return config, 900, scattering_steps(sol["n0"]), len(SWEEP_GRID)


def _check_sweep(out: Path, config: dict):
    rows = _read_json(out / "summary.json")["rows"]
    if [r["ratio"] for r in rows] != list(SWEEP_GRID):
        return {}, ["sweep rows do not follow the configured ratio grid"]
    figures = {
        "transmission_err": max(
            max(abs(r["t2"] - r["ratio"]), abs(r["t3"] - (1.0 - r["ratio"]))) for r in rows
        ),
        "unitarity_residual": max(r["unitarity_residual"] for r in rows),
    }
    return _gate(
        figures, {"transmission_err": TRANSMISSION_GATE, "unitarity_residual": UNITARITY_GATE}
    )


# -- big-star ----------------------------------------------------------------


def _make_big_star(rng):
    config = {
        "experiment": "simulate",
        "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 20000},
        "soliton": _soliton(rng, -150.0),
        "sim": {"dt": DT, "t_final": 4.0, "output_stride": OUTPUT_STRIDE},
        "out": "out",
        "snapshot_times": [0.0, 2.0, 4.0],
    }
    return config, 60000, 400, 1


def _check_big_star(out: Path, config: dict):
    s = _read_json(out / "summary.json")
    figures, failed = _gate({"norm_drift": _norm_error(s["total_norm"])}, {"norm_drift": NORM_GATE})
    snaps = sorted(p.name for p in (out / "snapshots").iterdir())
    if len(snaps) != len(config["snapshot_times"]):
        failed.append(f"expected {len(config['snapshot_times'])} snapshots, found {snaps}")
    return figures, failed


# -- tree-audit --------------------------------------------------------------


def _tree(depth: int) -> dict:
    """Depth-3, branching-3 sum-rule tree: gamma = 3**depth, so 1/gamma_p = sum 1/gamma_c.

    Internal bonds are 30 sites long; the root and the leaves are truncated
    semi-infinite bonds.
    """
    node = {"gamma": float(3**depth)}
    if depth < 3:
        node["children"] = [_tree(depth + 1) for _ in range(3)]
        if depth > 0:
            node["length"] = 30
    return node


def _make_tree_audit(rng):
    config = {
        "experiment": "conserved-audit",
        "topology": {"tree": _tree(0), "truncation": 200},
        "soliton": _soliton(rng, -60.0),
        "sim": {"dt": DT, "t_final": 20.0, "output_stride": 5},
        "out": "out",
        "m_max": 6,
    }
    # 1 root + 27 leaves of 200 sites, 3 + 9 internal bonds of 30 sites
    return config, 28 * 200 + 12 * 30, 2000, 1


def _check_tree_audit(out: Path, config: dict):
    s = _read_json(out / "summary.json")
    drifts = s["max_relative_drifts"]
    figures = {
        "norm_drift": drifts["N"],
        "hierarchy_drift": max(v for k, v in drifts.items() if k != "N"),
        "chain_residual": s["chain_residual"],
    }
    figures, failed = _gate(
        figures,
        {"norm_drift": DRIFT_GATE, "hierarchy_drift": DRIFT_GATE, "chain_residual": DRIFT_GATE},
    )
    if not s["sum_rule_satisfied"]:
        failed.append("sum rule reported as violated")
    expected = [f"C{m}" for m in range(2, config["m_max"] + 1)]
    if sorted(k for k in drifts if k.startswith("C")) != expected:
        failed.append(f"drift keys {sorted(drifts)} do not reach C{config['m_max']}")
    with open(out / "drift.csv", newline="") as fh:
        observations = sum(1 for _ in csv.reader(fh)) - 1
    if observations != 401:
        failed.append(f"drift.csv has {observations} observations, expected 401")
    return figures, failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4", "bifurcation", _make_fig4, _check_fig4),
        Workload("sweep", "sweep", _make_sweep, _check_sweep),
        Workload("big-star", "simulate", _make_big_star, _check_big_star),
        Workload("tree-audit", "conserved-audit", _make_tree_audit, _check_tree_audit),
    )
}


def generate(name: str, seed: int) -> tuple[dict, dict]:
    """Config and work record of workload ``name`` for ``seed``.

    The same (name, seed) always gives the same config.
    """
    rng = random.Random(f"{name}:{seed}")
    config, n_sites, steps, runs = WORKLOADS[name].make(rng)
    work = {
        "n_sites": n_sites,
        "steps_per_run": steps,
        "runs": runs,
        "site_steps": n_sites * steps * runs,
    }
    return config, work


def check(name: str, out: Path, config: dict) -> tuple[dict, list[str]]:
    """Accuracy figures and failed gates of one invocation's output directory."""
    try:
        return WORKLOADS[name].check(out, config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"unreadable output: {exc!r}"]


def digest(out: Path) -> tuple[str, int, int]:
    """SHA-256 over every file's relative path and bytes; also (files, bytes)."""
    h = hashlib.sha256()
    files = 0
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
                size += len(chunk)
        files += 1
    return h.hexdigest(), files, size
