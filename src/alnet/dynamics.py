"""Time integration of the lattice field on a graph.

Bulk sites obey the integrable discrete equation

    d psi_n / dt = i (psi_{n+1} + psi_{n-1}) (1 + gamma |psi_n|^2),

written here in its first-order form.  On the whole graph the neighbor
sum is ``(R + R^T) psi``, with R the vertex-weighted forward shift of
``coupling_coefficients``: the parent's last site sees
``sum_c s_c psi_{c,1}`` on its open side and each child's first site sees
``s_c psi_{parent,last}``, with ``s_c = sqrt(gamma_parent / gamma_child)``.
``CouplingCoefficients.neighbors`` evaluates it as one whole-array add plus
a fix-up at the end sites of the bonds.  Truncated far ends see a zero
amplitude (hard wall), so runs must end before significant field reaches
them.

Integration uses the classical fixed-step fourth-order Runge-Kutta
scheme.  ``step`` and ``evolve`` take R alone, and every accepted step
is checked for non-finite amplitudes in the layout of R's ``topology``;
a window keeps every bond's site coordinates, so a DivergenceError
names the same bond, site and time as on the full layout.
A step writes its stage derivatives into a ``StepWorkspace`` (three
complex arrays and one real one, reused by every step of an ``evolve``) and its
stage inputs into the fresh array it returns, so a returned state never
shares memory with the workspace.  ``evolve`` is the one way out of a
run: it yields the observed states, and each consumer keeps what it
needs of them.

The kernel is elementwise along a second axis: a state of shape
``(n_sites, B)`` with the ``stacked_couplings`` of B same-layout
topologies advances B independent runs in one step, and every column is
bitwise equal to the single run on its topology.  A single run stays
one-dimensional.

``evolve`` integrates only the window where the field is not exactly
zero.  A soliton's sech tails underflow to exact zeros a few thousand
sites from its peak (about 7.4k at beta = 0.1), and a zero that stays
zero needs no step.  At state 0, after step 1 and at every observation,
``evolve`` reads how far each semi-infinite bond holds a word that is
not bitwise +0 (its reach, counted from the vertex), and steps the next
block on ``with_truncation(topology, W)``: W is the longest reach plus
a band of ``4 * output_stride + 1`` sites, or the full truncation when
that is no shorter.  Each observed state is written back into the full
layout, +0 beyond the window.  The windowed run equals the full run bit
for bit, by three facts:

* one RK4 step spreads the support by at most 4 graph sites (one per
  stage), so over the at most ``output_stride`` steps of a block the
  window's last site, its wall, keeps zero magnitude at every stage;
* a site at +0 whose neighbours have zero magnitude stays bitwise +0:
  its derivative is a zero and ``y + k`` with ``y = +0`` gives +0, so the
  sites beyond the window stay +0 in the full run;
* the hard wall adds the literal +0 that the full layout's zero
  neighbour adds, in the same operand order.

Only bitwise +0 counts, so a launch whose underflowed tails hold -0
(``0 * phase``) steps its first step on the full layout, which clears
them.  The walls are read first, and a field that reaches any of them
(every run at the paper's sizes) costs one gather per observation.  A
stack windows on the union of its columns.  Nothing is replayed: the
band covers each block, and the next window is chosen from the exact
state at its start, wider when the field has spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError
from .state import FieldState, assert_finite
from .topology import (
    KIND_INTERNAL,
    ROOT_LABEL,
    CouplingCoefficients,
    GraphTopology,
    coupling_coefficients,
    kept_sites,
)


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters.

    ``output_stride`` counts steps between observed states.  ``t_final``
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


class StepWorkspace:
    """Scratch arrays of ``step`` for states of one shape.

    ``k1`` and ``k23`` hold the first stage derivative and the running sum
    of the second and third, ``k`` the stage being evaluated and
    ``density`` its factor ``1 + gamma |psi|^2``.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.k1, self.k23, self.k = (np.empty(shape, dtype=np.complex128) for _ in range(3))
        self.density = np.empty(shape)


def _derivative(
    y: np.ndarray, couplings: CouplingCoefficients, out: np.ndarray, density: np.ndarray
) -> np.ndarray:
    """Write ``i (R + R^T) y (1 + gamma |y|^2)`` into ``out``; ``density`` is scratch."""
    # re^2 + im^2, squared in out's memory before the neighbour sum fills it
    squares = out.view(np.float64)
    np.square(y.view(np.float64), out=squares)
    np.add(squares[..., 0::2], squares[..., 1::2], out=density)
    density *= couplings.site_gamma
    density += 1.0
    couplings.neighbors(y, out)
    out *= density
    out *= 1j
    return out


def rhs(state: FieldState, topology: GraphTopology) -> np.ndarray:
    """Time derivative of the field, as a flat complex array."""
    y = state.data
    if y.shape != (topology.n_sites,):
        raise InvalidParameterError("state does not match the topology layout")
    return _derivative(y, coupling_coefficients(topology), np.empty_like(y), np.empty(y.shape))


def step(
    state: FieldState,
    couplings: CouplingCoefficients,
    dt: float,
    workspace: StepWorkspace | None = None,
) -> FieldState:
    """One classical Runge-Kutta step of size ``dt``; returns a new state.

    A stacked state takes the ``stacked_couplings`` of its columns'
    topologies.  A non-finite result raises DivergenceError at its site
    in ``couplings.topology``'s layout.  ``workspace`` must fit the
    state's shape; without one the step makes its own.
    """
    y = state.data
    ws = StepWorkspace(y.shape) if workspace is None else workspace
    k1, k23, k = ws.k1, ws.k23, ws.k
    out = np.empty_like(y)
    half = 0.5 * dt
    # A complex product can round an underflow to a zero of either sign,
    # depending on the operand order.  The stages take the scalar first and
    # the final sum the array first; tests/test_dynamics.py pins these
    # orders against its reference step, bit for bit.
    _derivative(y, couplings, k1, ws.density)
    np.add(y, np.multiply(half, k1, out=out), out=out)
    _derivative(out, couplings, k23, ws.density)
    np.add(y, np.multiply(half, k23, out=out), out=out)
    _derivative(out, couplings, k, ws.density)
    np.add(y, np.multiply(dt, k, out=out), out=out)
    k23 += k
    _derivative(out, couplings, k, ws.density)
    # y + (dt/6) (k1 + 2 (k2 + k3) + k4)
    np.add(k1, np.multiply(2.0, k23, out=k23), out=k23)
    k23 += k
    k23 *= dt / 6.0
    np.add(y, k23, out=out)
    new = FieldState(out, state.time + dt)
    assert_finite(new, couplings.topology)
    return new


#: sites per block of the scan for a semi-infinite bond's reach
_SCAN = 4096


def _reach(words: np.ndarray) -> int:
    """Sites from the vertex through the last that is not bitwise +0.

    ``words`` holds one row of float words per site, ordered away from
    the vertex; it is scanned in blocks from the far end.
    """
    stop = words.shape[0]
    while stop > 0:
        start = max(stop - _SCAN, 0)
        hits = np.flatnonzero(words[start:stop].any(axis=1))
        if hits.size:
            return start + int(hits[-1]) + 1
        stop = start
    return 0


def _window(data: np.ndarray, topology: GraphTopology, band: int) -> int:
    """The truncation to step on next: the longest reach of a semi-infinite bond plus ``band``.

    Returns ``topology.truncation`` when that is no shorter.  The walls
    are read first, so a field that reaches them costs one gather.
    """
    if np.count_nonzero(data[topology.walls].view(np.uint64)):
        return topology.truncation
    words = data.view(np.uint64).reshape(topology.n_sites, -1)
    reach = max(
        _reach(words[topology.slices[b.label]][:: -1 if b.label == ROOT_LABEL else 1])
        for b in topology.bonds
        if b.kind != KIND_INTERNAL
    )
    return min(reach + band, topology.truncation)


def _restrict(state: FieldState, topology: GraphTopology, truncation: int) -> FieldState:
    """The sites of a ``topology`` state that ``truncation`` keeps; the state itself if all."""
    if truncation == topology.truncation:
        return state
    kept = kept_sites(topology, truncation)
    return FieldState(np.concatenate([state.data[s] for s in kept]), state.time)


def _embed(state: FieldState, window: GraphTopology, topology: GraphTopology) -> FieldState:
    """A ``window`` state in ``topology``'s layout, +0 where it has no site; itself if full."""
    if window.truncation == topology.truncation:
        return state
    data = np.zeros((topology.n_sites,) + state.data.shape[1:], dtype=np.complex128)
    for full, kept in zip(kept_sites(topology, window.truncation), window.slices.values()):
        data[full] = state.data[kept]
    return FieldState(data, state.time)


def evolve(
    state: FieldState, couplings: CouplingCoefficients, config: SimConfig
) -> Iterator[FieldState]:
    """Integrate to ``config.t_final``, yielding the observed states.

    Yields a copy of the initial state, then the state after every
    ``output_stride`` steps and after the final step, all in the layout
    of ``couplings.topology``.  The steps run on the window of the module
    docstring, re-chosen after the first step and at every observation.
    Each yielded state owns its data: ``step`` and the embedding return
    fresh arrays and no later step writes to them.  A stacked state is
    integrated as in ``step``, and one workspace serves every step on
    one window.  A missing ``t_final`` raises InvalidParameterError on
    the first ``next()``.
    """
    if config.t_final is None:
        raise InvalidParameterError("config.t_final is required by evolve")
    n_steps = round(config.t_final / config.dt)
    stride = config.output_stride
    band = 4 * stride + 1
    full = couplings.topology
    layout, workspace = couplings, None
    current = state.copy()
    yield current
    for i in range(1, n_steps + 1):
        if i <= 2 or (i - 1) % stride == 0:  # state 0, state 1 and every observation
            truncation = _window(current.data, full, band)
            if truncation != layout.topology.truncation:
                layout = couplings if truncation == full.truncation else couplings.truncated(truncation)
                workspace = None
            y = _restrict(current, full, truncation)
            if workspace is None:
                workspace = StepWorkspace(y.data.shape)
        y = step(y, layout, config.dt, workspace)
        observed = i % stride == 0 or i == n_steps
        if observed or i == 1:
            current = _embed(y, layout.topology, full)
            if observed:
                yield current
