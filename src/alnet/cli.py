"""Command-line entry point.

Subcommands: simulate | bifurcation | sweep | broken-rule | conserved-audit.
Every subcommand reads a JSON config (--config) and writes results under
the output directory.  The subcommand overrides the config's
"experiment" field; --out/--dt/--t-final/--m-max/--truncation override
the corresponding config fields.  Each subcommand calls the experiment
layer and only turns its result into ``RunOutputs``; every run launches
its soliton through ``experiments.soliton_trajectory``.  Exit codes:
0 success, 1 invalid configuration, 2 numerical divergence, 3 inconclusive
run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

from .conserved import check_order, drift_audit, z_quantity
from .dynamics import SimConfig
from .errors import (
    DivergenceError,
    InconclusiveRunError,
    InvalidParameterError,
    SiteRangeError,
    TopologyError,
)
from .experiments import (
    broken_rule_run,
    partial_norm_series,
    scattering_run,
    soliton_trajectory,
    transmission_sweep,
)
from .io import (
    DEFAULT_RATIO_GRID,
    RunConfig,
    RunOutputs,
    load_config,
    serialize_config,
    write_outputs,
)
from .state import FieldState, partial_norms
from .topology import ROOT_LABEL, is_reflectionless, with_truncation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INCONCLUSIVE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alnet",
        description="Soliton dynamics on chains, stars, and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _DISPATCH.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--dt", type=float, help="time step (overrides config)")
        sp.add_argument(
            "--t-final", type=float, dest="t_final", help="end time (overrides config)"
        )
        sp.add_argument(
            "--m-max", type=int, dest="m_max", help="hierarchy depth (overrides config)"
        )
        sp.add_argument(
            "--truncation",
            type=int,
            help="semi-infinite bond length (overrides config)",
        )
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    def given(*names):
        return {k: getattr(args, k) for k in names if getattr(args, k) is not None}

    config = replace(
        config,
        experiment=args.command,
        sim=replace(config.sim, **given("dt", "t_final")),
        **given("out", "m_max"),
    )
    if args.truncation is not None:
        config = replace(config, topology=with_truncation(config.topology, args.truncation))
    return config


def _check_snapshot_times(requested: tuple[float, ...], end: float, sim: SimConfig) -> None:
    """Raise InvalidParameterError for a time more than one output interval past ``end``."""
    for t in requested:
        # counted in steps, since the accumulated time drifts off the dt grid
        if round((t - end) / sim.dt) > sim.output_stride:
            raise InvalidParameterError(f"snapshot time {t:g} lies past the run's end {end:g}")


def _pick_snapshots(
    trajectory, requested: tuple[float, ...], sim: SimConfig
) -> tuple[tuple[float, FieldState], ...]:
    """Snapshot states at the observations nearest the requested times.

    With no requested times, the first and last observations are kept.  A
    time more than one output interval past the last observation raises
    InvalidParameterError instead of taking the last state.
    """
    last = trajectory[-1].time
    _check_snapshot_times(requested, last, sim)
    chosen = {}
    for t in requested or (trajectory[0].time, last):
        best = min(trajectory, key=lambda s: abs(s.time - t))
        chosen[best.time] = best
    return tuple(sorted(chosen.items()))


def _run_simulate(config: RunConfig) -> RunOutputs:
    """evolve the configured soliton and record the field"""
    topology = config.topology
    trajectory = soliton_trajectory(topology, config.soliton, config.sim)
    final = trajectory[-1]
    norms = partial_norms(final, topology).tolist()
    total = sum(norms)
    z = z_quantity(final, topology)
    summary = {
        "experiment": "simulate",
        "t_final": config.sim.t_final,
        "total_norm": total,
        "final_fractions": {label: n / total for label, n in zip(topology.labels, norms)},
        "E": -2.0 * z.real,
        "J": 2.0 * z.imag,
    }
    return RunOutputs(
        summary=summary,
        partial_norms=partial_norm_series(trajectory, topology),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times, config.sim),
        topology=topology,
    )


def _run_bifurcation(config: RunConfig) -> RunOutputs:
    """scatter a soliton off the vertex and report transmissions"""
    topology = config.topology
    report, trajectory = scattering_run(topology, config.soliton, config.sim)
    gamma1 = topology.bond(ROOT_LABEL).gamma
    summary = {
        "experiment": "bifurcation",
        "measurement_time": report.measurement_time,
        "transmissions": report.transmissions,
        "predicted_transmissions": {
            leaf: gamma1 / topology.bond(leaf).gamma for leaf in topology.leaves
        },
        "reflection": report.reflection,
        "unitarity_residual": report.unitarity_residual,
        "total_norm": report.total_norm,
    }
    return RunOutputs(
        summary=summary,
        partial_norms=(report.times, report.partial_norm_series),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times, config.sim),
        topology=topology,
    )


def _run_sweep(config: RunConfig) -> RunOutputs:
    """transmission versus coupling ratio over a grid"""
    ratios = config.ratios or DEFAULT_RATIO_GRID
    rows = transmission_sweep(
        ratios, config.soliton, config.sim, truncation=config.topology.truncation
    )
    return RunOutputs(summary={"experiment": "sweep", "rows": [asdict(row) for row in rows]})


def _run_broken_rule(config: RunConfig) -> RunOutputs:
    """scattering with a violated sum rule; track reflection"""
    topology = config.topology
    report, peaks, trajectory = broken_rule_run(topology, config.soliton, config.sim)
    summary = {
        "experiment": "broken-rule",
        "measurement_time": report.measurement_time,
        "transmissions": report.transmissions,
        "reflection": report.reflection,
        "unitarity_residual": report.unitarity_residual,
        "radiation_fraction": report.radiation_fraction,
        "incident_velocity": config.soliton.velocity,
        "peak_velocities": {
            label: series.velocity for label, series in sorted(peaks.items())
        },
        "total_norm": report.total_norm,
    }
    return RunOutputs(
        summary=summary,
        partial_norms=(report.times, report.partial_norm_series),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times, config.sim),
        topology=topology,
    )


def _run_conserved_audit(config: RunConfig) -> RunOutputs:
    """evolve and audit the conserved-quantity drifts"""
    topology = config.topology
    check_order(topology, config.m_max)
    trajectory = soliton_trajectory(topology, config.soliton, config.sim)
    report = drift_audit(trajectory, topology, config.m_max)
    summary = {
        "experiment": "conserved-audit",
        "t_final": config.sim.t_final,
        "m_max": config.m_max,
        "max_relative_drifts": report.drifts,
        "chain_residual": report.chain_residual,
        "sum_rule_satisfied": is_reflectionless(topology),
    }
    return RunOutputs(
        summary=summary,
        partial_norms=partial_norm_series(trajectory, topology),
        drift=report,
        snapshots=_pick_snapshots(trajectory, config.snapshot_times, config.sim),
        topology=topology,
    )


_DISPATCH = {
    "simulate": _run_simulate,
    "bifurcation": _run_bifurcation,
    "sweep": _run_sweep,
    "broken-rule": _run_broken_rule,
    "conserved-audit": _run_conserved_audit,
}


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        sim = config.sim
        if sim.t_final is not None:  # the run's end is known: check before integrating
            _check_snapshot_times(config.snapshot_times, round(sim.t_final / sim.dt) * sim.dt, sim)
    except (InvalidParameterError, TopologyError) as exc:
        print(f"alnet: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        outputs = _DISPATCH[config.experiment](config)
        outputs.config_echo = serialize_config(config)
        manifest = write_outputs(outputs, config.out)
    except (InvalidParameterError, TopologyError, SiteRangeError) as exc:
        print(f"alnet: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"alnet: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InconclusiveRunError as exc:
        print(f"alnet: inconclusive run: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    for name in manifest:
        print(f"wrote {config.out}/{name}")
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
