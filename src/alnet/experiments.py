"""The one run behind every subcommand, and the scattering scenarios built on it.

Every driver launches a soliton on the incoming bond, integrates until
the transmitted peaks sit well past their vertices, and reports the
per-bond norm fractions.  The measurement time is derived from the
soliton kinematics: the peak must be at least a margin of sites beyond
the deepest vertex (plus ``TAIL_EXTRA`` sites so the sech tails
straddling the vertex are negligible) and at least the margin from every
truncated far end.  The margin is ``MEASUREMENT_MARGIN``, or more for a
wide soliton: the peak must leave no more than ``TAIL_FRACTION`` of its
norm behind it.  Runs whose geometry cannot satisfy this, whose given
``t_final`` ends before it, or whose field reaches a truncated end (more
than ``BOUNDARY_GUARD_TOL`` of the run's norm in a guard site's
``|psi|^2``), raise InconclusiveRunError rather than report biased
numbers.

One run for every experiment and CLI subcommand: ``observe`` evolves a
launch and reads each observed state once, for the partial norms, the
boundary guard, the run's ``SnapshotPicker`` and the caller's folds
(``broken_rule_run``'s ``_PeakTrack``s, ``conserved-audit``'s
``SnapshotFold``), so no run holds its trajectory.  A peak track is only such
a fold: one ``add`` per observation and one ``series`` at the end.  The
picker is a fold with a finality rule: as observation times only grow,
the pick for a requested time is final at the first observation at or
past it, or at the run's end, and each final pick goes once to the
caller's ``hand_off`` (the CLI's ``io.SnapshotFiles``, which starts
formatting its file), so the snapshot files need not wait for the run.
The sweep discards its picks and passes no ``hand_off``.
``simulate`` and ``conserved-audit`` observe a plain ``soliton_profile``.
``scattering_run`` launches, observes and reports a scattering run, one
topology or the runs of one stack of one layout, so a stacked run's
report equals its single run's bit for bit; the bifurcation, the
``transmission_sweep`` grid and ``broken_rule_run``'s peak-track folds
are all calls of it.  Its launch refuses, before the first step, a
soliton that does not move toward the vertex or that puts more than
``LAUNCH_OFF_BOND_TOL`` of its norm off bond 1, past the vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dynamics import SimConfig, evolve
from .errors import InconclusiveRunError, InvalidParameterError
from .soliton import SolitonParams, soliton_profile
from .state import FieldState, bond_field, partial_norms
from .topology import (
    GraphTopology,
    ROOT_LABEL,
    build_star,
    coupling_coefficients,
    is_reflectionless,
    site_offset,
)

MEASUREMENT_MARGIN = 50
TAIL_EXTRA = 30
# a sech^2 peak leaves about e^(-2 beta x) of its norm more than x sites behind it
TAIL_FRACTION = 1e-6
# a guard site's |psi|^2 over the run's norm: above the sech tail the margin
# geometry permits (~1e-5 at the margin), below any misplaced soliton (~beta / 2)
BOUNDARY_GUARD_TOL = 5e-4
PEAK_MODULUS_FLOOR = 1e-6
REFLECTED_FIT_DELAY = 25.0
RADIATION_WINDOW = 25
# criterion 1's tolerance on T, which a launch this far off bond 1 can move unscattered
LAUNCH_OFF_BOND_TOL = 1e-3


@dataclass(frozen=True)
class TransmissionReport:
    """Norm bookkeeping of one scattering run.

    ``partial_norms`` is the run's times and per-bond series from ``observe``;
    ``transmissions`` maps each leaf label to its final norm fraction;
    ``reflection`` is the incoming bond's final fraction;
    ``unitarity_residual`` is |sum of leaf fractions - 1|.
    ``radiation_fraction`` is filled by broken-rule runs only: the norm
    fraction outside every peak window.
    """

    partial_norms: tuple[np.ndarray, dict[str, np.ndarray]]
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


class _PeakTrack:
    """The modulus peak of one bond, added one observation at a time after ``start``.

    A three-point parabolic fit refines the argmax, so positions are real-valued site coordinates.
    """

    def __init__(self, topology: GraphTopology, bond: str, start: float = -math.inf):
        self.topology, self.bond, self.start = topology, bond, start
        self.axis = topology.site_coordinates(bond)
        self.rows: list[tuple[float, float, float]] = []  # (time, position, height)

    def add(self, state: FieldState) -> None:
        if not state.time > self.start:
            return
        mod = np.abs(bond_field(state, self.topology, self.bond))
        j = int(np.argmax(mod))
        pos = float(self.axis[j])
        peak = float(mod[j])
        if 0 < j < mod.size - 1:
            a = 0.5 * (mod[j - 1] + mod[j + 1]) - mod[j]
            b = 0.5 * (mod[j + 1] - mod[j - 1])
            if a < 0.0:
                shift = -b / (2.0 * a)
                if abs(shift) <= 1.0:
                    pos += shift
                    peak = float(mod[j] + a * shift * shift + b * shift)
        self.rows.append((state.time, pos, peak))

    def series(self) -> PeakSeries:
        times, sites, moduli = np.array(self.rows, dtype=float).reshape(-1, 3).T
        velocity = None
        if moduli.size and float(moduli.max()) >= PEAK_MODULUS_FLOOR:
            window = moduli > 0.5 * moduli.max()
            if int(window.sum()) >= 2 and np.ptp(times[window]) > 0:
                velocity = float(np.polyfit(times[window], sites[window], 1)[0])
        return PeakSeries(
            bond=self.bond, times=times, sites=sites, moduli=moduli, velocity=velocity
        )


def _margin(soliton: SolitonParams) -> int:
    """Sites from the measured peak to every far end; ``TAIL_EXTRA`` more past the deepest vertex.

    ``MEASUREMENT_MARGIN`` for every beta >= 0.087; a wider soliton needs
    ``ln(1 / TAIL_FRACTION) / (2 beta)`` sites past the vertex.
    """
    tail = math.ceil(math.log(1.0 / TAIL_FRACTION) / (2.0 * soliton.beta))
    return max(MEASUREMENT_MARGIN, tail - TAIL_EXTRA)


def _measurement_time(
    topology: GraphTopology, soliton: SolitonParams, config: SimConfig
) -> float:
    margin = _margin(soliton)
    target = max(site_offset(topology, leaf) for leaf in topology.leaves) + margin + TAIL_EXTRA
    for leaf in topology.leaves:
        room = topology.bond(leaf).length - margin
        if target - site_offset(topology, leaf) > room:
            raise InconclusiveRunError(
                f"leaf {leaf!r} is too short to hold the peak "
                f"{margin} sites from its far end"
            )
    interval = config.dt * config.output_stride
    raw = (target - soliton.n0) / soliton.velocity
    return math.ceil(raw / interval - 1e-9) * interval


def _check_boundaries(state: FieldState, topology: GraphTopology, norm: float):
    """InconclusiveRunError when a guard site's ``|psi|^2`` exceeds ``BOUNDARY_GUARD_TOL * norm``."""
    edge = state.data[topology.guard_sites]
    worst = (edge.real**2 + edge.imag**2).reshape(-1, 2).max(axis=1)
    over = np.flatnonzero(worst > BOUNDARY_GUARD_TOL * norm)
    if over.size:
        label, _ = topology.locate(int(topology.guard_sites[2 * over[0]]))
        raise InconclusiveRunError(
            f"field reached the truncated end of bond {label!r} "
            f"(|psi|^2 = {worst[over[0]]:.3e})"
        )


def _launch(
    topologies: Sequence[GraphTopology], soliton: SolitonParams, config: SimConfig
) -> tuple[SimConfig, FieldState]:
    """Every scattering run starts here: its config with ``t_final`` set, and its state at t = 0.

    One topology is one run, several are the runs of one stack, whose
    launches lie back to back in the layout of their
    ``coupling_coefficients``.  A soliton that does not move toward the
    vertex, a launch that puts more than ``LAUNCH_OFF_BOND_TOL`` of its
    norm off bond 1 in any run, and a given ``t_final`` that ends the run
    in fewer steps than its derived measurement time raise
    InconclusiveRunError.
    """
    v = soliton.velocity
    if not (v > 0):
        raise InconclusiveRunError(
            f"soliton velocity {v:g} does not carry it toward the vertex"
        )
    launches = []
    for top in topologies:
        launch = soliton_profile(soliton, top, 0.0)
        norms = partial_norms(launch, top)  # bond '1' first
        off = float(norms[1:].sum() / norms.sum())
        if off > LAUNCH_OFF_BOND_TOL:
            raise InconclusiveRunError(
                f"the launch at n0 = {soliton.n0:g} puts {off:.3e} of its norm off bond "
                f"{ROOT_LABEL!r}, more than {LAUNCH_OFF_BOND_TOL:g}: it starts past the vertex"
            )
        launches.append(launch.data)
    t_final, derived = config.t_final, _measurement_time(topologies[0], soliton, config)
    if t_final is None:
        t_final = derived
    elif round(t_final / config.dt) < round(derived / config.dt):  # counted in steps, as the run is
        raise InconclusiveRunError(
            f"t_final {t_final:g} ends the run before its measurement time {derived:g}, when the "
            f"transmitted peaks sit {_margin(soliton) + TAIL_EXTRA} sites past the deepest vertex"
        )
    return replace(config, t_final=t_final), FieldState(np.concatenate(launches))


# (time, state) pairs, or (time, what the picker's hand_off returned for the state)
Snapshots = tuple[tuple[float, object], ...]
# takes a final pick, and whether only the run's last observation or its end made it final
HandOff = Callable[[FieldState, bool], object]


class SnapshotPicker:
    """Keeps the observation nearest each requested time, a fold over one run's states.

    Built before the run, it refuses a requested time more than one output
    interval past the end of ``config``'s run with InvalidParameterError,
    as ``config.n_steps`` refuses a missing ``t_final``.  ``add`` remembers,
    for each requested time, the nearest state seen so far; of two equally
    near states the earlier stays.  With no requested times the run's
    start (t = 0) and end are requested: the first and last observations.

    Observation times only grow, so the pick for a requested time t is
    final at the first observation at or past t, or at the run's end,
    which ``finish`` marks.  Each final pick goes once to ``hand_off``
    with ``at_end`` False at the next observation, or at ``finish`` with
    ``at_end`` True, the picks that only the last observation or the end
    made final.  What ``hand_off`` returns is kept in place of the state;
    without it the state is kept.
    """

    def __init__(
        self,
        requested: Sequence[float],
        config: SimConfig,
        hand_off: HandOff | None = None,
    ):
        end = config.n_steps * config.dt
        for t in requested:
            # counted in steps, since the accumulated time drifts off the dt grid
            if round((t - end) / config.dt) > config.output_stride:
                raise InvalidParameterError(f"snapshot time {t:g} lies past the run's end {end:g}")
        self.hand_off = hand_off
        # each requested time that a later observation may still decide, with its nearest state so far
        self.open: list[tuple[float, FieldState | None]] = [(t, None) for t in requested or (0.0, end)]
        self.final: dict[float, FieldState] = {}  # by time: final picks not yet handed off
        self.kept: dict[float, object] = {}  # by time: what ``picks`` returns
        self.last: FieldState | None = None

    def add(self, state: FieldState) -> None:
        self._pass_on(at_end=False)
        still_open = []
        for t, kept in self.open:
            if kept is None or abs(state.time - t) < abs(kept.time - t):
                kept = state
            if state.time >= t:
                self.final[kept.time] = kept
            else:
                still_open.append((t, kept))
        self.open = still_open
        self.last = state

    def finish(self) -> None:
        """Mark the run's end: every pick is final, and the ones not yet handed off go now."""
        for _, kept in self.open:
            self.final[kept.time] = kept
        self.open = []
        self._pass_on(at_end=True)

    def _pass_on(self, at_end: bool) -> None:
        for time, state in self.final.items():
            if time not in self.kept:
                self.kept[time] = state if self.hand_off is None else self.hand_off(state, at_end)
        self.final = {}

    def picks(self) -> Snapshots:
        """The kept ``(time, state)`` pairs of a finished run, one per observation, in time order."""
        return tuple(sorted(self.kept.items()))


def observe(
    topologies: Sequence[GraphTopology],
    launch: FieldState,
    config: SimConfig,
    snapshot_times: Sequence[float] = (),
    folds: Sequence[Callable[[FieldState], None]] = (),
    hand_off: HandOff | None = None,
) -> tuple[list[tuple[np.ndarray, dict[str, np.ndarray]]], SnapshotPicker]:
    """Evolve ``launch`` under ``config`` and read its observed states once, in order.

    ``launch`` is one run on ``topologies[0]`` or a stack of runs back to
    back, run b on ``topologies[b]``.  The run's ``SnapshotPicker``, which
    passes each final pick to ``hand_off``, is built first, so its
    refusals come before the first step.  At each
    observation every run, in stack order, adds one row of partial norms
    and passes the boundary guard (InconclusiveRunError names the first
    run whose field reached a truncated end); then the picker and each
    fold get the state.  Returns each run's times and per-bond series, and
    the finished picker.  An overflow raises DivergenceError, not a warning.
    """
    picker = SnapshotPicker(snapshot_times, config, hand_off)
    times, rows = [], [[] for _ in topologies]
    with np.errstate(over="ignore", invalid="ignore"):
        for state in evolve(launch, coupling_coefficients(*topologies), config):
            times.append(state.time)
            for data, top, norms in zip(state.data.reshape(len(topologies), -1), topologies, rows):
                run = FieldState(data, state.time)
                norms.append(partial_norms(run, top))
                _check_boundaries(run, top, norms[-1].sum())
            picker.add(state)
            for fold in folds:
                fold(state)
    picker.finish()
    times = np.array(times)
    runs = [(times, dict(zip(top.labels, np.array(r).T))) for r, top in zip(rows, topologies)]
    return runs, picker


def _report(norms: tuple, topology: GraphTopology, measurement_time: float) -> TransmissionReport:
    final = {label: float(series[-1]) for label, series in norms[1].items()}
    total = sum(final.values())
    transmissions = {leaf: final[leaf] / total for leaf in topology.leaves}
    return TransmissionReport(
        partial_norms=norms,
        transmissions=transmissions,
        reflection=final[ROOT_LABEL] / total,
        unitarity_residual=abs(sum(transmissions.values()) - 1.0),
        total_norm=total,
        measurement_time=float(measurement_time),
    )


def scattering_run(
    topologies: Sequence[GraphTopology],
    soliton: SolitonParams,
    config: SimConfig,
    snapshot_times: Sequence[float] = (),
    folds: Sequence[Callable[[FieldState], None]] = (),
    hand_off: HandOff | None = None,
) -> tuple[list[TransmissionReport], SnapshotPicker]:
    """Launch, evolve, observe and account one scattering run, or a stack of them.

    One topology is one run; several of one site layout are the runs of
    one stacked state, back to back, with one shared measurement time, derived
    before the first step, so a snapshot time past it raises
    InvalidParameterError before anything is integrated.  ``observe``
    runs it and hands each observed state to the run's ``SnapshotPicker``,
    which passes its final picks to ``hand_off``, and then to ``folds``; a
    failure names the first failing run's bond.  Returns one report per
    topology and the picker, whose ``picks()`` are the kept snapshots.
    """
    run_cfg, launch = _launch(topologies, soliton, config)
    runs, picker = observe(topologies, launch, run_cfg, snapshot_times, folds, hand_off)
    return [_report(norms, top, run_cfg.t_final) for norms, top in zip(runs, topologies)], picker


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
    snapshot_times: Sequence[float] = (),
) -> list[SweepRow]:
    """Transmission versus coupling ratio on three-bond stars.

    Each grid point r fixes gamma = (1, 1/r, 1/(1-r)), the unique
    sum-rule family with gamma1/gamma2 = r; the predicted transmissions
    are then r and 1 - r.  The stars share one layout, so the whole grid
    is one stacked ``scattering_run``; rows keep grid order.  No snapshot
    is kept, but ``snapshot_times`` past the run's end are refused.
    """
    grid = [float(r) for r in ratio_grid]
    for r in grid:
        if not (0.0 < r < 1.0):
            raise InvalidParameterError(
                f"ratio {r:g} is outside (0, 1); the third coupling would not be positive"
            )
    stars = [build_star((1.0, 1.0 / r, 1.0 / (1.0 - r)), truncation) for r in grid]
    reports, _ = scattering_run(stars, soliton, config, snapshot_times)
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


def broken_rule_run(
    topology: GraphTopology,
    soliton: SolitonParams,
    config: SimConfig,
    snapshot_times: Sequence[float] = (),
    hand_off: HandOff | None = None,
) -> tuple[TransmissionReport, dict[str, PeakSeries], Snapshots]:
    """Scatter off couplings that violate the sum rule and track the peaks.

    Requires a genuinely broken rule (reflection regime); the sum rule
    holding is a precondition error, raised before any integration.  As
    the states pass, the reflected peak is followed on the incoming bond
    (over the observations after the incident peak has cleared the
    vertex) and the transmitted peak on every leaf.  The report carries
    the radiation estimate: the norm fraction outside every peak window at
    the last observation.  Returns the report, the peak series keyed by
    bond label, and the snapshots as ``scattering_run`` does, each final
    pick passed to ``hand_off`` as it comes.
    """
    if is_reflectionless(topology):
        raise InvalidParameterError(
            "couplings satisfy the vertex sum rule; use scattering_run "
            "(the bifurcation subcommand) instead"
        )
    v = soliton.velocity
    # the launch refuses v <= 0 before the first observation reaches a track
    reflected_start = (-soliton.n0 / v) + REFLECTED_FIT_DELAY / abs(v) if v > 0 else math.inf
    tracks = {
        label: _PeakTrack(topology, label, reflected_start if label == ROOT_LABEL else -math.inf)
        for label in (ROOT_LABEL, *topology.leaves)
    }
    folds = [track.add for track in tracks.values()]
    [report], picker = scattering_run([topology], soliton, config, snapshot_times, folds, hand_off)
    series = {label: track.series() for label, track in tracks.items()}
    peak_norm = 0.0
    for label, ps in series.items():
        if ps.velocity is not None:
            peak_norm += _window_norm(picker.last, topology, label, float(ps.sites[-1]))
    radiation = max(0.0, (report.total_norm - peak_norm) / report.total_norm)
    return replace(report, radiation_fraction=radiation), series, picker.picks()
