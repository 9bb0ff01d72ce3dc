"""Packaged scattering scenarios: bifurcation, sweeps, broken-rule runs.

Every driver launches a soliton on the incoming bond, integrates until
the transmitted peaks sit well past their vertices, and reports the
per-bond norm fractions.  The measurement time is derived from the
soliton kinematics: the peak must be at least ``MEASUREMENT_MARGIN``
sites beyond the deepest vertex (plus ``TAIL_EXTRA`` sites so the sech
tails straddling the vertex are negligible) and at least
``MEASUREMENT_MARGIN`` sites from every truncated far end.  Runs whose
geometry cannot satisfy this, or whose field visibly reaches a truncated
end, raise InconclusiveRunError rather than report biased numbers.

``scattering_run`` integrates one topology and keeps its trajectory for
further analysis.  ``scattering_ensemble`` integrates several topologies
of one site layout as the columns of one stacked state and keeps only
their partial norms; ``transmission_sweep`` runs its whole ratio grid
this way.  Both give bitwise-equal reports for the same topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .dynamics import SimConfig, evolve
from .errors import InconclusiveRunError, InvalidParameterError
from .soliton import SolitonParams, soliton_profile
from .state import FieldState, bond_field, partial_norms
from .topology import (
    GraphTopology,
    KIND_INTERNAL,
    ROOT_LABEL,
    build_star,
    build_tree,
    coupling_coefficients,
    is_reflectionless,
    site_offset,
    stacked_couplings,
)

MEASUREMENT_MARGIN = 50
TAIL_EXTRA = 30
# above the sech tail the margin geometry permits (~1e-5 for beta = 0.1 at
# 50 sites), below any misplaced soliton (|psi|^2 ~ sinh^2 beta >= 1e-2)
BOUNDARY_GUARD_TOL = 1e-4
PEAK_MODULUS_FLOOR = 1e-6
REFLECTED_FIT_DELAY = 25.0
RADIATION_WINDOW = 25


@dataclass(frozen=True)
class TransmissionReport:
    """Norm bookkeeping of one scattering run.

    ``transmissions`` maps each leaf label to its final norm fraction;
    ``reflection`` is the incoming bond's final fraction;
    ``unitarity_residual`` is |sum of leaf fractions - 1|.
    ``radiation_fraction`` is filled by broken-rule runs only: the norm
    fraction outside every tracked peak window.
    """

    times: np.ndarray
    partial_norm_series: dict[str, np.ndarray]
    transmissions: dict[str, float]
    reflection: float
    unitarity_residual: float
    total_norm: float
    measurement_time: float
    radiation_fraction: float | None = None


@dataclass(frozen=True)
class PeakSeries:
    """Tracked peak of one bond: position and height per observation.

    ``velocity`` is the least-squares slope of position over the times
    where the peak modulus exceeds half its maximum; None when the bond
    never carries a peak above ``PEAK_MODULUS_FLOOR``.
    """

    bond: str
    times: np.ndarray
    sites: np.ndarray
    moduli: np.ndarray
    velocity: float | None

    @property
    def no_peak(self) -> bool:
        return self.velocity is None


@dataclass(frozen=True)
class PeakTrack:
    """Per-bond peak series of one run, keyed by bond label."""

    series: dict[str, PeakSeries]


def peak_tracker(
    trajectory: Sequence[FieldState], topology: GraphTopology, bond: str
) -> PeakSeries:
    """Track the modulus peak of one bond across a trajectory.

    The discrete argmax is refined by a three-point parabolic fit, so
    positions are real-valued site coordinates.
    """
    axis = topology.site_coordinates(bond)
    times = np.array([s.time for s in trajectory], dtype=float)
    sites = np.zeros(len(trajectory))
    moduli = np.zeros(len(trajectory))
    for i, st in enumerate(trajectory):
        mod = np.abs(bond_field(st, topology, bond))
        j = int(np.argmax(mod))
        pos = float(axis[j])
        peak = float(mod[j])
        if 0 < j < mod.size - 1:
            a = 0.5 * (mod[j - 1] + mod[j + 1]) - mod[j]
            b = 0.5 * (mod[j + 1] - mod[j - 1])
            if a < 0.0:
                shift = -b / (2.0 * a)
                if abs(shift) <= 1.0:
                    pos += shift
                    peak = float(mod[j] + a * shift * shift + b * shift)
        sites[i] = pos
        moduli[i] = peak
    velocity = None
    if moduli.size and float(moduli.max()) >= PEAK_MODULUS_FLOOR:
        window = moduli > 0.5 * moduli.max()
        if int(window.sum()) >= 2 and np.ptp(times[window]) > 0:
            velocity = float(np.polyfit(times[window], sites[window], 1)[0])
    return PeakSeries(bond=bond, times=times, sites=sites, moduli=moduli, velocity=velocity)


def _resolve_topology(gammas, truncation: int) -> GraphTopology:
    if isinstance(gammas, GraphTopology):
        return gammas
    if isinstance(gammas, Mapping):
        return build_tree(gammas, truncation)
    return build_star(gammas, truncation)


def _measurement_time(
    topology: GraphTopology, soliton: SolitonParams, config: SimConfig
) -> float:
    v = soliton.velocity
    if not (v > 0):
        raise InconclusiveRunError(
            f"soliton velocity {v:g} does not carry it toward the vertex"
        )
    target = (
        max(site_offset(topology, leaf) for leaf in topology.leaves)
        + MEASUREMENT_MARGIN
        + TAIL_EXTRA
    )
    for leaf in topology.leaves:
        room = topology.bond(leaf).length - MEASUREMENT_MARGIN
        if target - site_offset(topology, leaf) > room:
            raise InconclusiveRunError(
                f"leaf {leaf!r} is too short to hold the peak "
                f"{MEASUREMENT_MARGIN} sites from its far end"
            )
    interval = config.dt * config.output_stride
    raw = (target - soliton.n0) / v
    return math.ceil(raw / interval - 1e-9) * interval


def _check_boundaries(state: FieldState, topology: GraphTopology):
    for label in topology.labels:
        if topology.bond(label).kind == KIND_INTERNAL:
            continue
        a = bond_field(state, topology, label)
        edge = a[:2] if label == ROOT_LABEL else a[-2:]
        worst = float(np.max(edge.real**2 + edge.imag**2))
        if worst > BOUNDARY_GUARD_TOL:
            raise InconclusiveRunError(
                f"field reached the truncated end of bond {label!r} "
                f"(|psi|^2 = {worst:.3e})"
            )


def partial_norm_series(
    trajectory: Sequence[FieldState], topology: GraphTopology
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Observation times and each bond's partial norm at every observation."""
    times = np.array([s.time for s in trajectory])
    series = {label: np.zeros(len(trajectory)) for label in topology.labels}
    for i, st in enumerate(trajectory):
        for label, value in partial_norms(st, topology).items():
            series[label][i] = value
    return times, series


def _run_config(topology: GraphTopology, soliton: SolitonParams, config: SimConfig) -> SimConfig:
    t_final = config.t_final
    if t_final is None:
        t_final = _measurement_time(topology, soliton, config)
    return SimConfig(dt=config.dt, t_final=t_final, output_stride=config.output_stride)


def _report(
    times: np.ndarray,
    series: dict[str, np.ndarray],
    topology: GraphTopology,
    measurement_time: float,
) -> TransmissionReport:
    final = {label: series[label][-1] for label in topology.labels}
    total = sum(final.values())
    transmissions = {leaf: final[leaf] / total for leaf in topology.leaves}
    return TransmissionReport(
        times=times,
        partial_norm_series=series,
        transmissions=transmissions,
        reflection=final[ROOT_LABEL] / total,
        unitarity_residual=abs(sum(transmissions.values()) - 1.0),
        total_norm=float(total),
        measurement_time=float(measurement_time),
    )


def scattering_run(
    topology: GraphTopology, soliton: SolitonParams, config: SimConfig
) -> tuple[TransmissionReport, list[FieldState]]:
    """Launch, evolve, and account one scattering scenario.

    Returns the report together with the observed trajectory so callers
    can run further analyses (peak tracking, drift audits, snapshots)
    without re-integrating.
    """
    run_cfg = _run_config(topology, soliton, config)
    initial = soliton_profile(soliton, topology, 0.0)
    result = evolve(
        initial,
        topology,
        coupling_coefficients(topology),
        run_cfg,
        observers=[lambda t, s: s.copy()],
    )
    trajectory = [snap for _, snap in result.records[0]]
    _check_boundaries(result.final_state, topology)
    times, series = partial_norm_series(trajectory, topology)
    return _report(times, series, topology, run_cfg.t_final), trajectory


def scattering_ensemble(
    topologies: Sequence[GraphTopology], soliton: SolitonParams, config: SimConfig
) -> list[TransmissionReport]:
    """Scatter one soliton off several topologies of one site layout at once.

    The runs are the columns of one ``(n_sites, B)`` state, advanced by
    the single-run kernel, so each report equals ``scattering_run``'s on
    its topology bit for bit.  A shared layout means a shared measurement
    time.  The observer keeps each column's partial norms, not its
    states.  Failures are checked column by column in the given order:
    the first non-finite column raises DivergenceError naming its own
    bond and site, and after the run the first column whose field reached
    a truncated end raises InconclusiveRunError.
    """
    if not topologies:
        return []
    couplings = stacked_couplings(topologies)
    layout = topologies[0]
    run_cfg = _run_config(layout, soliton, config)
    initial = FieldState(
        np.stack([soliton_profile(soliton, top, 0.0).data for top in topologies], axis=1)
    )

    def column_norms(t: float, stack: FieldState) -> list[dict[str, float]]:
        return [
            partial_norms(FieldState(stack.data[:, b]), top)
            for b, top in enumerate(topologies)
        ]

    result = evolve(initial, layout, couplings, run_cfg, observers=[column_norms])
    final = result.final_state
    for b, top in enumerate(topologies):
        _check_boundaries(FieldState(final.data[:, b], final.time), top)
    records = result.records[0]
    times = np.array([t for t, _ in records])
    return [
        _report(
            times,
            {label: np.array([norms[b][label] for _, norms in records]) for label in top.labels},
            top,
            run_cfg.t_final,
        )
        for b, top in enumerate(topologies)
    ]


def run_bifurcation(
    gammas,
    soliton: SolitonParams,
    config: SimConfig = SimConfig(),
    truncation: int = 400,
) -> TransmissionReport:
    """Scatter a soliton off the vertex structure defined by ``gammas``.

    ``gammas`` is a flat sequence (star graph), a nested mapping (tree,
    see build_tree), or a ready topology.  ``config.t_final`` overrides
    the derived measurement time when set.
    """
    topology = _resolve_topology(gammas, truncation)
    report, _ = scattering_run(topology, soliton, config)
    return report


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a coupling-ratio sweep."""

    ratio: float
    t2: float
    t3: float
    predicted_t2: float
    predicted_t3: float
    unitarity_residual: float


def transmission_sweep(
    ratio_grid: Sequence[float],
    soliton: SolitonParams,
    config: SimConfig = SimConfig(),
    truncation: int = 300,
    workers: int = 1,
) -> list[SweepRow]:
    """Transmission versus coupling ratio on three-bond stars.

    Each grid point r fixes gamma = (1, 1/r, 1/(1-r)), the unique
    sum-rule family with gamma1/gamma2 = r; the predicted transmissions
    are then r and 1 - r.  The stars share one layout, so the whole grid
    is integrated at once by ``scattering_ensemble``; rows keep grid
    order.  ``workers`` is accepted and has no effect.
    """
    grid = [float(r) for r in ratio_grid]
    for r in grid:
        if not (0.0 < r < 1.0):
            raise InvalidParameterError(
                f"ratio {r:g} is outside (0, 1); the third coupling would not be positive"
            )
    stars = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), truncation) for r in grid]
    reports = scattering_ensemble(stars, soliton, config)
    return [
        SweepRow(
            ratio=r,
            t2=report.transmissions["11"],
            t3=report.transmissions["12"],
            predicted_t2=r,
            predicted_t3=1.0 - r,
            unitarity_residual=report.unitarity_residual,
        )
        for r, report in zip(grid, reports)
    ]


def _window_norm(state: FieldState, topology: GraphTopology, label: str, center: float) -> float:
    a = bond_field(state, topology, label)
    axis = topology.site_coordinates(label)
    mask = np.abs(axis - center) <= RADIATION_WINDOW
    if not mask.any():
        return 0.0
    g = topology.bond(label).gamma
    dens = a[mask].real ** 2 + a[mask].imag ** 2
    return float(np.sum(np.log1p(g * dens)) / g)


def track_broken_peaks(
    report: TransmissionReport,
    trajectory: Sequence[FieldState],
    topology: GraphTopology,
    soliton: SolitonParams,
) -> tuple[TransmissionReport, PeakTrack]:
    """Peak analysis of a reflection-regime trajectory.

    Tracks the reflected peak on the incoming bond (restricted to
    observations after the incident peak has cleared the vertex) and the
    transmitted peak on every leaf, then rebuilds the report with the
    radiation estimate: the norm fraction outside every peak window.
    """
    v = soliton.velocity
    t_fit_start = (-soliton.n0 / v) + REFLECTED_FIT_DELAY / abs(v)
    reflected_part = [s for s in trajectory if s.time > t_fit_start]
    series = {ROOT_LABEL: peak_tracker(reflected_part, topology, ROOT_LABEL)}
    for leaf in topology.leaves:
        series[leaf] = peak_tracker(trajectory, topology, leaf)
    final = trajectory[-1]
    tracked = 0.0
    for label, ps in series.items():
        if ps.velocity is not None and ps.moduli.size:
            tracked += _window_norm(final, topology, label, float(ps.sites[-1]))
    radiation = max(0.0, (report.total_norm - tracked) / report.total_norm)
    report = replace(report, radiation_fraction=radiation)
    return report, PeakTrack(series=series)


def broken_rule_run(
    topology: GraphTopology, soliton: SolitonParams, config: SimConfig
) -> tuple[TransmissionReport, PeakTrack, list[FieldState]]:
    """Scatter off couplings that violate the sum rule, keeping the trajectory.

    Requires a genuinely broken rule (reflection regime); the sum rule
    holding is a precondition error, raised before any integration.  See
    track_broken_peaks for the extra analysis attached to the report.
    """
    if is_reflectionless(topology):
        raise InvalidParameterError(
            "couplings satisfy the vertex sum rule; use run_bifurcation "
            "(the bifurcation subcommand) instead"
        )
    report, trajectory = scattering_run(topology, soliton, config)
    report, track = track_broken_peaks(report, trajectory, topology, soliton)
    return report, track, trajectory


def run_broken_rule(
    gammas,
    soliton: SolitonParams,
    config: SimConfig = SimConfig(),
    truncation: int = 400,
) -> tuple[TransmissionReport, PeakTrack]:
    """``broken_rule_run`` on the topology that ``gammas`` describes.

    ``gammas`` takes the forms that run_bifurcation accepts.
    """
    report, track, _ = broken_rule_run(_resolve_topology(gammas, truncation), soliton, config)
    return report, track
