"""Command-line entry point.

Subcommands: simulate | bifurcation | sweep | broken-rule | conserved-audit.
Every subcommand reads a JSON config (--config) and writes results under
the output directory.  The subcommand overrides the config's
"experiment" field; --out/--dt/--t-final/--m-max/--truncation override
the corresponding config fields.  Exit codes: 0 success, 1 invalid
configuration, 2 numerical failure, 3 inconclusive run.
"""

from __future__ import annotations

import argparse
import sys

from .conserved import drift_audit, z_quantity
from .dynamics import SimConfig, record_trajectory
from .errors import (
    DivergenceError,
    InconclusiveRunError,
    InvalidParameterError,
    SingularRecursionError,
    SiteRangeError,
    TopologyError,
)
from .experiments import (
    broken_rule_run,
    partial_norm_series,
    scattering_run,
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
from .soliton import soliton_profile
from .state import FieldState, partial_norms
from .topology import ROOT_LABEL, coupling_coefficients, is_reflectionless, with_truncation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INCONCLUSIVE = 3

_COMMANDS = {
    "simulate": "evolve the configured soliton and record the field",
    "bifurcation": "scatter a soliton off the vertex and report transmissions",
    "sweep": "transmission versus coupling ratio over a grid",
    "broken-rule": "scattering with a violated sum rule; track reflection",
    "conserved-audit": "evolve and audit the conserved-quantity drifts",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alnet",
        description="Soliton dynamics on chains, stars, and trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _COMMANDS.items():
        sp = sub.add_parser(name, help=blurb)
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
    sim = config.sim
    if args.dt is not None or args.t_final is not None:
        sim = SimConfig(
            dt=sim.dt if args.dt is None else args.dt,
            t_final=sim.t_final if args.t_final is None else args.t_final,
            output_stride=sim.output_stride,
        )
    topology = config.topology
    if args.truncation is not None:
        topology = with_truncation(topology, args.truncation)
    return RunConfig(
        experiment=args.command,
        topology=topology,
        soliton=config.soliton,
        sim=sim,
        out=config.out if args.out is None else args.out,
        m_max=config.m_max if args.m_max is None else args.m_max,
        ratios=config.ratios,
        snapshot_times=config.snapshot_times,
    )


def _pick_snapshots(
    trajectory, requested: tuple[float, ...]
) -> tuple[tuple[float, FieldState], ...]:
    """Snapshot states at the observations nearest the requested times.

    With no requested times, the first and last observations are kept.
    """
    if requested:
        chosen = {}
        for t in requested:
            best = min(trajectory, key=lambda s: abs(s.time - t))
            chosen[best.time] = best
    else:
        chosen = {trajectory[0].time: trajectory[0], trajectory[-1].time: trajectory[-1]}
    return tuple(sorted(chosen.items()))


def _run_simulate(config: RunConfig) -> RunOutputs:
    if config.sim.t_final is None:
        raise InvalidParameterError("simulate requires sim.t_final")
    topology = config.topology
    couplings = coupling_coefficients(topology)
    initial = soliton_profile(config.soliton, topology, 0.0)
    trajectory = record_trajectory(initial, topology, couplings, config.sim)
    final = trajectory[-1]
    norms = partial_norms(final, topology)
    total = sum(norms.values())
    z = z_quantity(final, topology, couplings)
    summary = {
        "experiment": "simulate",
        "t_final": config.sim.t_final,
        "total_norm": total,
        "final_fractions": {label: norms[label] / total for label in topology.labels},
        "E": -2.0 * z.real,
        "J": 2.0 * z.imag,
    }
    return RunOutputs(
        summary=summary,
        config_echo=serialize_config(config),
        partial_norms=partial_norm_series(trajectory, topology),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times),
        topology=topology,
    )


def _run_bifurcation(config: RunConfig) -> RunOutputs:
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
        config_echo=serialize_config(config),
        partial_norms=(report.times, report.partial_norm_series),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times),
        topology=topology,
    )


def _run_sweep(config: RunConfig) -> RunOutputs:
    ratios = config.ratios or DEFAULT_RATIO_GRID
    rows = transmission_sweep(
        ratios, config.soliton, config.sim, truncation=config.topology.truncation
    )
    summary = {
        "experiment": "sweep",
        "rows": [
            {
                "ratio": row.ratio,
                "t2": row.t2,
                "t3": row.t3,
                "predicted_t2": row.predicted_t2,
                "predicted_t3": row.predicted_t3,
                "unitarity_residual": row.unitarity_residual,
            }
            for row in rows
        ],
    }
    return RunOutputs(summary=summary, config_echo=serialize_config(config))


def _run_broken_rule(config: RunConfig) -> RunOutputs:
    topology = config.topology
    report, track, trajectory = broken_rule_run(topology, config.soliton, config.sim)
    summary = {
        "experiment": "broken-rule",
        "measurement_time": report.measurement_time,
        "transmissions": report.transmissions,
        "reflection": report.reflection,
        "unitarity_residual": report.unitarity_residual,
        "radiation_fraction": report.radiation_fraction,
        "incident_velocity": config.soliton.velocity,
        "peak_velocities": {
            label: series.velocity for label, series in sorted(track.series.items())
        },
        "total_norm": report.total_norm,
    }
    return RunOutputs(
        summary=summary,
        config_echo=serialize_config(config),
        partial_norms=(report.times, report.partial_norm_series),
        snapshots=_pick_snapshots(trajectory, config.snapshot_times),
        topology=topology,
    )


def _run_conserved_audit(config: RunConfig) -> RunOutputs:
    if config.sim.t_final is None:
        raise InvalidParameterError("conserved-audit requires sim.t_final")
    topology = config.topology
    couplings = coupling_coefficients(topology)
    initial = soliton_profile(config.soliton, topology, 0.0)
    trajectory = record_trajectory(initial, topology, couplings, config.sim)
    report = drift_audit(trajectory, topology, couplings, config.m_max)
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
        config_echo=serialize_config(config),
        partial_norms=partial_norm_series(trajectory, topology),
        drift=report,
        snapshots=_pick_snapshots(trajectory, config.snapshot_times),
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
    except (InvalidParameterError, TopologyError) as exc:
        print(f"alnet: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        outputs = _DISPATCH[config.experiment](config)
        manifest = write_outputs(outputs, config.out)
    except (InvalidParameterError, TopologyError, SiteRangeError) as exc:
        print(f"alnet: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, SingularRecursionError) as exc:
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
