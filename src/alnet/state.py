"""Complex field configurations on a graph topology.

A :class:`FieldState` stores one complex amplitude per lattice site in a
single flat array whose layout is dictated by the topology (see
``GraphTopology.slices``).  States are cheap value objects: clone with
:meth:`FieldState.copy`, and treat the data of shared states as read-only.

A state knows nothing of the vertices: what lies across a vertex is read
through the topology's shift operator (``coupling_coefficients``), which
carries the ``sqrt(gamma_parent / gamma_child)`` weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .topology import GraphTopology


@dataclass
class FieldState:
    """Flat complex field over all sites of a topology, plus a time stamp."""

    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.ndim != 1:
            raise InvalidParameterError("state data must be a one-dimensional array")

    def copy(self) -> "FieldState":
        return FieldState(self.data.copy(), self.time)


def zero_state(topology: GraphTopology, time: float = 0.0) -> FieldState:
    return FieldState(np.zeros(topology.n_sites, dtype=np.complex128), time)


def bond_field(state: FieldState, topology: GraphTopology, label: str) -> np.ndarray:
    """View of one bond's amplitudes, ordered away from the root."""
    _check_shape(state, topology)
    return state.data[topology.slices[label]]


def _check_shape(state: FieldState, topology: GraphTopology):
    if state.data.shape != (topology.n_sites,):
        raise InvalidParameterError(
            f"state has {state.data.shape[0]} sites, topology has {topology.n_sites}"
        )


def assert_finite(state: FieldState, topology: GraphTopology):
    """Raise :class:`DivergenceError` at the first non-finite amplitude."""
    view = state.data.view(np.float64)
    if np.isfinite(view).all():
        return
    bad = int(np.flatnonzero(~np.isfinite(view))[0]) // 2
    bond, site = topology.locate(bad)
    raise DivergenceError(bond, site, state.time)


def partial_norms(state: FieldState, topology: GraphTopology) -> dict[str, float]:
    """Norm content of each bond.

    The density is ``ln(1 + gamma |psi|^2) / gamma``, so the total over all
    bonds is the conserved norm of the flow.
    """
    _check_shape(state, topology)
    out = {}
    for b in topology.bonds:
        a = state.data[topology.slices[b.label]]
        dens = a.real**2 + a.imag**2
        out[b.label] = float(np.sum(np.log1p(b.gamma * dens)) / b.gamma)
    return out
