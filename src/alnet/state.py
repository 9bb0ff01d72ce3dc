"""Complex field configurations on a graph topology.

A :class:`FieldState` stores one complex amplitude per lattice site in a
single flat array whose layout is dictated by the topology (see
``GraphTopology.slices``).  States are cheap value objects: clone with
:meth:`FieldState.copy`, and treat the data of shared states as read-only.
An ensemble of B runs on topologies of one n-site layout is one flat
state of B n sites, run b at ``[b n, (b + 1) n)``; the per-run readers
here (``bond_field``, ``partial_norms``) take one run's slice at a time.

A state knows nothing of the vertices: what lies across a vertex is read
through the topology's shift operator (``coupling_coefficients``), which
carries the ``sqrt(gamma_parent / gamma_child)`` weights.  The tables a
reader needs live on the topology, built once per instance: ``partial_norms``
reads ``site_gamma`` and the equal-length bond groups ``length_groups``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .topology import GraphTopology


@dataclass
class FieldState:
    """Flat complex field over all sites of a topology, plus a time stamp.

    ``data`` is one-dimensional: ``n_sites`` entries, or B n for a
    stack of B runs that share one n-site layout.
    """

    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if self.data.ndim != 1:
            raise InvalidParameterError("state data must be a one-dimensional array of sites")

    def copy(self) -> "FieldState":
        return FieldState(self.data.copy(), self.time)


def bond_field(state: FieldState, topology: GraphTopology, label: str) -> np.ndarray:
    """View of one bond's amplitudes, ordered away from the root."""
    _check_shape(state, topology)
    return state.data[topology.slices[label]]


def _check_shape(state: FieldState, topology: GraphTopology):
    if state.data.shape != (topology.n_sites,):
        raise InvalidParameterError(
            f"state has shape {state.data.shape}, topology has {topology.n_sites} sites"
        )


def assert_finite(state: FieldState, topology: GraphTopology):
    """Raise :class:`DivergenceError` at the first non-finite amplitude.

    One reduction screens the state: a finite sum of squares of the real
    and imaginary parts means every amplitude is finite.  Only a sum that
    is not runs the exact search, so a finite field whose sum of squares
    overflows (an amplitude above about 1e154) still passes; that
    overflow warns as the caller's errstate says, like the step's own
    |psi|^2.  In a stack the first failing index i lies in run ``i // n``,
    and the error names that run's bond and site in ``topology``'s layout.
    """
    parts = state.data.view(np.float64)
    if math.isfinite(np.dot(parts, parts)) or np.isfinite(parts).all():
        return
    first = int(np.flatnonzero(~np.isfinite(state.data))[0])
    bond, site = topology.locate(first % topology.n_sites)
    raise DivergenceError(bond, site, state.time)


@np.errstate(over="ignore", invalid="ignore")
def partial_norms(state: FieldState, topology: GraphTopology) -> np.ndarray:
    """Norm content of each bond, in ``topology.labels`` order.

    The density is ``ln(1 + gamma |psi|^2) / gamma``, so the total over all
    bonds is the conserved norm of the flow.  One ``log1p`` pass covers
    every site; the bonds of one length are then summed as the rows of
    one (k, L) array, which keeps the bits of a per-bond ``np.sum``.  A
    field whose |psi|^2 overflows has no finite norm: DivergenceError.
    """
    _check_shape(state, topology)
    a = state.data
    logs = np.log1p(topology.site_gamma * (a.real**2 + a.imag**2))
    tables, order, gamma = topology.length_groups
    norms = np.concatenate([logs[s].reshape(k, -1).sum(axis=1) for k, s in tables])[order] / gamma
    if not np.isfinite(norms).all():
        bond, site = topology.locate(int(np.abs(a.view(np.float64)).argmax()) // 2)
        raise DivergenceError(bond, site, state.time, "|psi|^2 overflows at the largest amplitude")
    return norms
