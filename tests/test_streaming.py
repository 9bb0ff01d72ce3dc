"""Streamed experiments against the list of every observed state.

Each single-run subcommand reads ``evolve``'s states once and keeps only
what its outputs need.  These tests rebuild every output file from
``list(evolve(...))`` with the nearest-observation rule applied to the
whole list, and require the CLI's files to match byte for byte, also
with every snapshot file formatted by a forked child.  A tracemalloc
check pins that a run holds no trajectory.
"""

import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alnet import (
    RunOutputs,
    coupling_coefficients,
    evolve,
    load_config,
    partial_norms,
    serialize_config,
    soliton_profile,
    write_outputs,
    z_quantity,
)
from alnet.cli import EXIT_OK, run_cli
from alnet.experiments import REFLECTED_FIT_DELAY, _window_norm
from conftest import ALPHA_FIG4, audit, peak_tracker

# observations every 0.5 on an exact binary grid, so 1.25 and 10.25 lie
# exactly halfway between two of them: the earlier one must be kept
SIM = {"dt": 0.125, "output_stride": 4}
SCATTERING = {
    # n0 = -40 puts at most 3.0e-4 of the launch off bond 1, inside the scattering bound
    "soliton": {"alpha": ALPHA_FIG4, "beta": 0.1, "n0": -40.0},
    "sim": SIM,
    # 85.3 lies within one output interval past the measured end, 85
    "snapshot_times": [0.0, 10.25, 10.1, 40.0, 85.3],
}
CASES = {
    "simulate": {
        "topology": {"gammas": [1.0, 1.5, 3.0], "truncation": 60},
        "soliton": {"alpha": ALPHA_FIG4, "beta": 0.2, "n0": -20.0},
        "sim": dict(SIM, t_final=5.0),
        "snapshot_times": [0.0, 1.25, 1.1, 3.2, 5.4],
    },
    "bifurcation": dict(SCATTERING, topology={"gammas": [1.0, 1.5, 3.0], "truncation": 140}),
    "broken-rule": dict(SCATTERING, topology={"gammas": [0.5, 1.5, 3.0], "truncation": 140}),
    "conserved-audit": {
        "topology": {
            "tree": {
                "gamma": 1.0,
                "children": [
                    {"gamma": 2.0, "length": 3, "children": [{"gamma": 4.0}, {"gamma": 4.0}]},
                    {"gamma": 2.0},
                ],
            },
            "truncation": 40,
        },
        "soliton": {"alpha": ALPHA_FIG4, "beta": 0.2, "n0": -10.0},
        "sim": dict(SIM, t_final=5.0),
        "m_max": 4,
        "snapshot_times": [1.25, 0.0, 2.6],
    },
}


def pick_from_list(trajectory, requested):
    """The nearest observation to each requested time, searched over the whole list."""
    chosen = {}
    for t in requested or (trajectory[0].time, trajectory[-1].time):
        best = min(trajectory, key=lambda s: abs(s.time - t))
        chosen[best.time] = best
    return tuple(sorted(chosen.items()))


def listed_outputs(command, config, summary):
    """Every output of ``command`` rebuilt from the list of all observed states.

    ``summary`` is the CLI's own summary; scattering runs take their
    measurement time from it.
    """
    top, soliton, sim = config.topology, config.soliton, config.sim
    if sim.t_final is None:
        sim = replace(sim, t_final=summary["measurement_time"])
    trajectory = list(evolve(soliton_profile(soliton, top), coupling_coefficients(top), sim))
    rows = np.array([partial_norms(s, top) for s in trajectory])
    outputs = RunOutputs(
        summary={"experiment": command},
        config_echo=serialize_config(config),
        partial_norms=(np.array([s.time for s in trajectory]), dict(zip(top.labels, rows.T))),
        snapshots=pick_from_list(trajectory, config.snapshot_times),
        topology=top,
    )
    final = dict(zip(top.labels, rows[-1].tolist()))
    total = sum(final.values())
    if command == "simulate":
        z = z_quantity(trajectory[-1], top)
        outputs.summary.update(
            t_final=sim.t_final,
            total_norm=total,
            final_fractions={label: n / total for label, n in final.items()},
            E=-2.0 * z.real,
            J=2.0 * z.imag,
        )
    elif command == "conserved-audit":
        outputs.drift = audit(trajectory, top, config.m_max)
        outputs.summary.update(
            t_final=sim.t_final,
            m_max=config.m_max,
            max_relative_drifts=outputs.drift.drifts,
            chain_residual=outputs.drift.chain_residual,
            sum_rule_satisfied=True,
        )
    else:
        transmissions = {leaf: final[leaf] / total for leaf in top.leaves}
        outputs.summary.update(
            measurement_time=sim.t_final,
            transmissions=transmissions,
            reflection=final["1"] / total,
            unitarity_residual=abs(sum(transmissions.values()) - 1.0),
            total_norm=total,
        )
    if command == "bifurcation":
        gamma1 = top.bond("1").gamma
        outputs.summary["predicted_transmissions"] = {
            leaf: gamma1 / top.bond(leaf).gamma for leaf in top.leaves
        }
    if command == "broken-rule":
        v = soliton.velocity
        t_fit_start = -soliton.n0 / v + REFLECTED_FIT_DELAY / abs(v)
        peaks = {"1": peak_tracker([s for s in trajectory if s.time > t_fit_start], top, "1")}
        peaks.update((leaf, peak_tracker(trajectory, top, leaf)) for leaf in top.leaves)
        tracked = sum(
            _window_norm(trajectory[-1], top, label, float(ps.sites[-1]))
            for label, ps in peaks.items()
            if ps.velocity is not None
        )
        outputs.summary.update(
            radiation_fraction=max(0.0, (total - tracked) / total),
            incident_velocity=v,
            peak_velocities={label: ps.velocity for label, ps in sorted(peaks.items())},
        )
    return outputs


def files_of(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", sorted(CASES))
def test_streamed_outputs_equal_the_list_path(tmp_path, command):
    path = tmp_path / "config.json"
    out = tmp_path / "streamed"
    path.write_text(json.dumps(dict(CASES[command], experiment=command, out=str(out))))
    assert run_cli([command, "--config", str(path)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    listed = tmp_path / "listed"
    write_outputs(listed_outputs(command, load_config(path), summary), listed)
    streamed_files, listed_files = files_of(out), files_of(listed)
    assert sorted(streamed_files) == sorted(listed_files)
    for name, data in listed_files.items():
        assert streamed_files[name] == data, name
    # the tie at 1.25 or 10.25 keeps the earlier observation
    tie = 10.0 if command in ("bifurcation", "broken-rule") else 1.0
    assert f"snapshots/t_{tie:.4f}.csv" in streamed_files


def test_audit_holds_no_trajectory(tmp_path):
    # 301 observations of 4003 sites: the list of states alone would be 19 MB
    config = dict(CASES["conserved-audit"], experiment="conserved-audit", out=str(tmp_path / "out"))
    config["topology"] = dict(config["topology"], truncation=1000)
    config["sim"] = {"dt": 0.01, "t_final": 3.0, "output_stride": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    state_bytes = 16 * load_config(path).topology.n_sites
    tracemalloc.start()
    try:
        assert run_cli(["conserved-audit", "--config", str(path)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    observations = sum(1 for _ in open(tmp_path / "out" / "drift.csv")) - 1
    assert observations == 301
    # about 24 states' worth: the step workspace, the hierarchy's temporaries,
    # the two kept snapshots and ~1 kB of drift and norm rows per observation
    assert peak < 48 * state_bytes, f"peak {peak / state_bytes:.1f} states"


@pytest.mark.parametrize("command", sorted(CASES))
def test_forked_formatters_write_the_list_paths_bytes(tmp_path, capfd, monkeypatch, worker_forks, command):
    # every snapshot file formatted in a forked child, whatever the state's size
    monkeypatch.setattr("alnet.io.FORK_SITES", 0)
    path = tmp_path / "config.json"
    out = tmp_path / "streamed"
    path.write_text(json.dumps(dict(CASES[command], experiment=command, out=str(out))))
    assert run_cli([command, "--config", str(path)]) == EXIT_OK
    stdout, stderr = capfd.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    listed = tmp_path / "listed"
    write_outputs(listed_outputs(command, load_config(path), summary), listed)
    streamed_files = files_of(out)
    assert streamed_files == files_of(listed)
    snapshots = [name for name in streamed_files if name.startswith("snapshots/")]
    assert len(worker_forks) == len(snapshots) + (command == "conserved-audit")
    assert stderr == ""
    wrote = [line for line in stdout.splitlines() if line.startswith("wrote ")]
    assert len(set(wrote)) == len(wrote) == len(streamed_files)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
