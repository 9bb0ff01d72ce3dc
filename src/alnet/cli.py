"""Command-line entry point.

Subcommands: simulate | bifurcation | sweep | broken-rule | conserved-audit.
Every subcommand reads a JSON config (--config) and writes results under
the output directory.  The subcommand overrides the config's
"experiment" field; --out/--dt/--t-final/--m-max/--truncation override
the corresponding config fields.  Each subcommand makes one call to the
experiment layer and only turns its result into ``RunOutputs``:
``simulate`` and ``conserved-audit`` call ``experiments.observe`` on the
configured ``soliton_profile``, bifurcation, sweep and broken-rule are
all ``experiments.scattering_run``, which calls it on a checked launch.
``conserved-audit`` folds the observed states into a
``conserved.SnapshotFold``, which computes the snapshots in a forked
``multiprocessing`` worker on a machine with two usable CPUs; its exit
codes, messages and output are those of the serial audit.
``observe`` evolves every run, guards the truncated walls at each
observation and holds only the states its ``SnapshotPicker`` keeps for
the snapshot files; the picker refuses a snapshot time past the run's
end before the first step.  Each subcommand but ``sweep`` hands every
final pick to the run's ``io.SnapshotFiles``, which on a big state
formats its file in a forked child while the run steps on; ``run_cli``
holds it around the run and the write, so that every exit, Ctrl-C
included, ends its children and closes their files, and a failed run
writes no output.  Exit codes:
0 success, 1 invalid configuration, 2 numerical divergence, 3 inconclusive
run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

from .conserved import SnapshotFold, drift_audit, z_quantity
from .errors import (
    DivergenceError,
    InconclusiveRunError,
    InvalidParameterError,
    SiteRangeError,
    TopologyError,
)
from .experiments import HandOff, broken_rule_run, observe, scattering_run, transmission_sweep
from .io import (
    DEFAULT_RATIO_GRID,
    RunConfig,
    RunOutputs,
    SnapshotFiles,
    load_config,
    serialize_config,
    write_outputs,
)
from .soliton import soliton_profile
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


def _run_simulate(config: RunConfig, hand_off: HandOff) -> RunOutputs:
    """evolve the configured soliton and record the field"""
    topology = config.topology
    launch = soliton_profile(config.soliton, topology)
    [(times, series)], picker = observe(
        [topology], launch, config.sim, config.snapshot_times, (), hand_off
    )
    final = {label: float(norms[-1]) for label, norms in series.items()}
    total = sum(final.values())
    z = z_quantity(picker.last, topology)
    summary = {
        "experiment": "simulate",
        "t_final": config.sim.t_final,
        "total_norm": total,
        "final_fractions": {label: n / total for label, n in final.items()},
        "E": -2.0 * z.real,
        "J": 2.0 * z.imag,
    }
    return RunOutputs(
        summary=summary,
        partial_norms=(times, series),
        snapshots=picker.picks(),
        topology=topology,
    )


def _run_bifurcation(config: RunConfig, hand_off: HandOff) -> RunOutputs:
    """scatter a soliton off the vertex and report transmissions"""
    topology = config.topology
    [report], picker = scattering_run(
        [topology], config.soliton, config.sim, config.snapshot_times, (), hand_off
    )
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
        partial_norms=report.partial_norms,
        snapshots=picker.picks(),
        topology=topology,
    )


def _run_sweep(config: RunConfig, hand_off: HandOff) -> RunOutputs:
    """transmission versus coupling ratio over a grid"""
    topology = config.topology
    if len(topology.bonds) != 3 or len(topology.leaves) != 2:
        raise InvalidParameterError(
            "sweep builds its own three-bond stars from 'ratios' and takes only the topology's truncation: "
            f"give it an incoming bond with two leaves, not {len(topology.bonds)} bonds and "
            f"{len(topology.leaves)} leaves"
        )
    ratios = config.ratios or DEFAULT_RATIO_GRID
    rows = transmission_sweep(
        ratios, config.soliton, config.sim, topology.truncation, config.snapshot_times
    )
    return RunOutputs(summary={"experiment": "sweep", "rows": [asdict(row) for row in rows]})


def _run_broken_rule(config: RunConfig, hand_off: HandOff) -> RunOutputs:
    """scattering with a violated sum rule; track reflection"""
    topology = config.topology
    report, peaks, snapshots = broken_rule_run(
        topology, config.soliton, config.sim, config.snapshot_times, hand_off
    )
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
        partial_norms=report.partial_norms,
        snapshots=snapshots,
        topology=topology,
    )


def _run_conserved_audit(config: RunConfig, hand_off: HandOff) -> RunOutputs:
    """evolve and audit the conserved-quantity drifts"""
    topology = config.topology
    launch = soliton_profile(config.soliton, topology)
    with SnapshotFold(topology, config.m_max) as audit:
        (norms,), picker = observe(
            [topology], launch, config.sim, config.snapshot_times, [audit.add], hand_off
        )
        report = drift_audit(audit.snapshots())
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
        partial_norms=norms,
        drift=report,
        snapshots=picker.picks(),
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
        with SnapshotFiles(config.topology) as files:
            outputs = _DISPATCH[config.experiment](config, files.add)
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
