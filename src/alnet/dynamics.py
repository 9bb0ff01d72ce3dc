"""Time integration of the lattice field on a graph.

Bulk sites obey the integrable discrete equation

    d psi_n / dt = i (psi_{n+1} + psi_{n-1}) (1 + gamma |psi_n|^2),

written here in its first-order form.  On the whole graph the neighbor
sum is ``(R + R^T) psi``, with R the vertex-weighted forward shift of
``coupling_coefficients``: the parent's last site sees
``sum_c s_c psi_{c,1}`` on its open side and each child's first site sees
``s_c psi_{parent,last}``, with ``s_c = sqrt(gamma_parent / gamma_child)``.
Truncated far ends see a zero amplitude (hard wall), so runs must end
before significant field reaches them.

Integration uses the classical fixed-step fourth-order Runge-Kutta
scheme.  Every accepted step is checked for non-finite amplitudes.

The kernel is elementwise along a second axis: a state of shape
``(n_sites, B)`` with the ``stacked_couplings`` of B same-layout
topologies advances B independent runs in one step, and every column is
bitwise equal to the single run on its topology.  A single run stays
one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, SiteRangeError
from .state import FieldState, assert_finite, bond_field
from .topology import CouplingCoefficients, GraphTopology

Observer = Callable[[float, FieldState], Any]


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters.

    ``output_stride`` counts steps between observer calls.  ``t_final``
    may be left as None when a driver (for example the scattering
    experiments) derives the run length itself.
    """

    dt: float = 0.01
    t_final: float | None = None
    output_stride: int = 100

    def __post_init__(self):
        object.__setattr__(self, "dt", float(self.dt))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidParameterError("dt must be finite and > 0")
        if self.t_final is not None:
            object.__setattr__(self, "t_final", float(self.t_final))
            if not (math.isfinite(self.t_final) and self.t_final >= 0):
                raise InvalidParameterError("t_final must be finite and >= 0")
        if isinstance(self.output_stride, bool) or not (
            isinstance(self.output_stride, int) and self.output_stride >= 1
        ):
            raise InvalidParameterError("output_stride must be a positive integer")


def _rhs_flat(data: np.ndarray, couplings: CouplingCoefficients) -> np.ndarray:
    neigh = couplings.forward(data)
    neigh += couplings.backward(data)
    dens = data.real**2 + data.imag**2
    dens *= couplings.site_gamma
    dens += 1.0
    neigh *= dens
    neigh *= 1j
    return neigh


def rhs(
    state: FieldState, topology: GraphTopology, couplings: CouplingCoefficients
) -> np.ndarray:
    """Time derivative of the field, as a flat complex array."""
    if state.data.shape != (topology.n_sites,):
        raise InvalidParameterError("state does not match the topology layout")
    return _rhs_flat(state.data, couplings)


def step(
    state: FieldState,
    topology: GraphTopology,
    couplings: CouplingCoefficients,
    dt: float,
) -> FieldState:
    """One classical Runge-Kutta step of size ``dt``; returns a new state.

    A stacked state takes the ``stacked_couplings`` of its columns'
    topologies, and ``topology`` gives their shared layout.
    """
    y = state.data
    k1 = _rhs_flat(y, couplings)
    k2 = _rhs_flat(y + (0.5 * dt) * k1, couplings)
    k3 = _rhs_flat(y + (0.5 * dt) * k2, couplings)
    k4 = _rhs_flat(y + dt * k3, couplings)
    k2 += k3
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + k4)
    new = FieldState(out, state.time + dt)
    assert_finite(new, topology)
    return new


@dataclass
class EvolveResult:
    """Final state plus per-observer records of (time, returned value)."""

    final_state: FieldState
    records: tuple[tuple[tuple[float, Any], ...], ...]


def evolve(
    state: FieldState,
    topology: GraphTopology,
    couplings: CouplingCoefficients,
    config: SimConfig,
    observers: Sequence[Observer] = (),
) -> EvolveResult:
    """Integrate to ``config.t_final``, notifying observers along the way.

    Observers run on the initial state, after every ``output_stride``
    steps, and on the final step.  Observer exceptions abort the run.
    A stacked state is integrated as in ``step``.
    """
    if config.t_final is None:
        raise InvalidParameterError("config.t_final is required by evolve")
    n_steps = round(config.t_final / config.dt)
    records: list[list[tuple[float, Any]]] = [[] for _ in observers]

    def notify(current: FieldState):
        for rec, obs in zip(records, observers):
            rec.append((current.time, obs(current.time, current)))

    current = state.copy()
    notify(current)
    for i in range(1, n_steps + 1):
        current = step(current, topology, couplings, config.dt)
        if i % config.output_stride == 0 or i == n_steps:
            notify(current)
    return EvolveResult(
        final_state=current,
        records=tuple(tuple(r) for r in records),
    )


def record_trajectory(
    state: FieldState,
    topology: GraphTopology,
    couplings: CouplingCoefficients,
    config: SimConfig,
) -> list[FieldState]:
    """Convenience: evolve while storing state copies at every observation."""
    result = evolve(state, topology, couplings, config, observers=[lambda t, s: s.copy()])
    return [snap for _, snap in result.records[0]]


def local_current(state: FieldState, topology: GraphTopology, label: str, n: int) -> float:
    """Norm current through the link between sites ``n`` and ``n+1`` of a bond.

    Defined as ``2 Im(psi*_n psi_{n+1})``, positive for transport toward
    larger site index.  Both sites must be real sites of the same bond.
    """
    a = bond_field(state, topology, label)
    sites = topology.site_coordinates(label)
    lo = int(sites[0])
    i = n - lo
    if not (0 <= i < a.shape[0] - 1):
        raise SiteRangeError(f"link ({n}, {n + 1}) is not interior to bond {label!r}")
    w = np.conj(a[i]) * a[i + 1]
    return float(2.0 * w.imag)
