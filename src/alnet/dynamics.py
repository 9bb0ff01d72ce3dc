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
scheme.  The right-hand side is the private ``_derivative``, evaluated
only inside ``step``: ``step`` and ``evolve`` are the way in, and both
take R alone.  Every accepted step is checked for non-finite amplitudes
in the layout of R's ``topology``; a window keeps every bond's site
coordinates, so a DivergenceError names the same bond, site and time as
on the full layout.
A step writes its stage derivatives into a ``StepWorkspace`` (three
complex arrays and one real one, reused by every step of an ``evolve``) and its
stage inputs into the fresh array it returns, so a returned state never
shares memory with the workspace.  ``evolve`` is the one way out of a
run: it yields the observed states, which ``experiments.observe`` reads
once and hands to the folds that keep what they need of them.

The kernel sees one flat layout whether the run is single or stacked:
B same-layout topologies of n sites each lie back to back in a state of
B n sites, run b at ``[b n, (b + 1) n)``.  Their ``coupling_coefficients``
are block-diagonal, so one step advances B independent runs, and every
block is bitwise equal to the single run on its topology.

``evolve`` integrates only the window where the field is not exactly
zero.  A soliton's sech tails underflow to exact zeros a few thousand
sites from its peak (about 7.4k at beta = 0.1), and a zero that stays
zero needs no step.  At state 0, after step 1 and at every observation,
``evolve`` reads the reach of the field: the largest
``topology.vertex_distance`` of a site that holds a word that is not
bitwise +0.  It steps the next stretch of steps with the R of
``with_truncation(topology, W)`` for each of R's topologies, whose sites
are those with ``vertex_distance <= W``, in every run's block of the
layout: W is the reach plus a band of
``4 * output_stride + 1`` sites, or the full truncation when that is no
shorter.  Each observed state is written back into the full
layout, +0 beyond the window.  The windowed run equals the full run bit
for bit, by three facts:

* one RK4 step spreads the support by at most 4 graph sites (one per
  stage), so over the at most ``output_stride`` steps of a stretch the
  window's last site, its wall, keeps zero magnitude at every stage;
* a site at +0 whose neighbours have zero magnitude stays bitwise +0:
  its derivative is a zero and ``y + k`` with ``y = +0`` gives +0, so the
  sites beyond the window stay +0 in the full run;
* the hard wall adds the literal +0 that the full layout's zero
  neighbour adds, in the same operand order.

Only bitwise +0 counts, so a launch whose underflowed tails hold -0
(``0 * phase``) steps its first step on the full layout, which clears
them.  The guard sites, the two nearest each wall, are read first, and a
field that reaches any of them (every run at the paper's sizes) costs one
gather per observation.  A stack windows on the union of its runs.
Nothing is replayed: the band covers each stretch, and the next window is
chosen from the exact state at its start, wider when the field has spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError
from .state import FieldState, assert_finite
from .topology import CouplingCoefficients, GraphTopology, coupling_coefficients, with_truncation


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters.

    ``output_stride`` counts steps between observed states.  ``t_final``
    may be left as None when a driver (for example the scattering
    experiments) derives the run length itself.  A given ``t_final``
    must lie on the ``dt`` grid: ``t_final / dt`` within 1e-9 max(1, n) of
    its nearest integer n, and n > 0 unless ``t_final`` is 0.
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
            steps = self.t_final / self.dt
            n = round(steps) if math.isfinite(steps) else 0  # an overflowing count is off any grid
            if abs(steps - n) > 1e-9 * max(1, n) or n == 0 < self.t_final:
                raise InvalidParameterError(
                    f"t_final {self.t_final:g} is off the grid of dt {self.dt:g}: {steps:.9g} steps"
                )
        if isinstance(self.output_stride, bool) or not (
            isinstance(self.output_stride, int) and self.output_stride >= 1
        ):
            raise InvalidParameterError("output_stride must be a positive integer")

    @property
    def n_steps(self) -> int:
        """``round(t_final / dt)``, the one count of a run's steps; InvalidParameterError without ``t_final``."""
        if self.t_final is None:
            raise InvalidParameterError("this run requires sim.t_final")
        return round(self.t_final / self.dt)


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


def step(
    state: FieldState,
    couplings: CouplingCoefficients,
    dt: float,
    workspace: StepWorkspace | None = None,
) -> FieldState:
    """One classical Runge-Kutta step of size ``dt``; returns a new state.

    A stacked state takes the ``coupling_coefficients`` of its runs'
    topologies.  A non-finite result raises DivergenceError at its site
    in ``couplings.topology``'s layout.  ``workspace`` must fit the
    state's shape; without one the step makes its own.  A state whose
    shape does not fit R raises InvalidParameterError.
    """
    y = state.data
    _check_shape(y, couplings)
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


def _check_shape(y: np.ndarray, couplings: CouplingCoefficients):
    # site_gamma has an entry per site of every run in R's layout
    if y.shape != couplings.site_gamma.shape:
        raise InvalidParameterError(f"state of shape {y.shape} does not fit R's {couplings.site_gamma.shape}")


def _window(data: np.ndarray, topology: GraphTopology, band: int) -> int:
    """The truncation to step on next: the reach of the field plus ``band``.

    The reach is the largest ``vertex_distance`` of a site that holds a
    word that is not bitwise +0.  Returns ``topology.truncation`` when
    that is no shorter.  The guard sites are read first, so a field that
    reaches them costs one gather: a word at distance ``truncation - 1``
    already gives ``reach + band >= truncation``, since the band is >= 5.
    ``data`` may hold a stack of runs on ``topology``'s layout, back to
    back, and the reach is that of their union.
    """
    words = data.view(np.uint64).reshape(-1, topology.n_sites, 2)  # (run, site, re/im)
    if np.count_nonzero(words[:, topology.guard_sites]):
        return topology.truncation
    occupied = np.bitwise_or(words[..., 0], words[..., 1]).any(axis=0)
    reach = int(topology.vertex_distance[occupied].max(initial=0))
    return min(reach + band, topology.truncation)


def evolve(
    state: FieldState, couplings: CouplingCoefficients, config: SimConfig
) -> Iterator[FieldState]:
    """Integrate to ``config.t_final``, yielding the observed states.

    Yields a copy of the initial state, then the state after every
    ``output_stride`` steps and after the final step, all in R's full
    layout.  The steps run on the window of the module
    docstring, re-chosen after the first step and at every observation.
    Each yielded state owns its data: ``step`` and the embedding return
    fresh arrays and no later step writes to them.  A stacked state is
    integrated as in ``step``, and one workspace serves every step on
    one window.  A missing ``t_final`` raises InvalidParameterError on
    the first ``next()`` (from ``config.n_steps``), and so does a state
    whose shape does not fit R.
    """
    n_steps = config.n_steps
    _check_shape(state.data, couplings)
    stride = config.output_stride
    band = 4 * stride + 1
    full = couplings.topology
    # kept: the window's sites in the full layout, None while it is the full layout
    layout, kept, workspace = couplings, None, None
    current = state.copy()
    yield current
    for i in range(1, n_steps + 1):
        if i <= 2 or (i - 1) % stride == 0:  # state 0, state 1 and every observation
            truncation = _window(current.data, full, band)
            if truncation != layout.topology.truncation:
                layout, kept, workspace = couplings, None, None
                if truncation < full.truncation:
                    cut = (with_truncation(t, truncation) for t in couplings.topologies)
                    layout = coupling_coefficients(*cut)
                    distance = np.tile(full.vertex_distance, len(couplings.topologies))
                    kept = np.flatnonzero(distance <= truncation)
            y = current if kept is None else FieldState(current.data[kept], current.time)
            if workspace is None:
                workspace = StepWorkspace(y.data.shape)
        y = step(y, layout, config.dt, workspace)
        observed = i % stride == 0 or i == n_steps
        if observed or i == 1:
            current = y
            if kept is not None:  # np.zeros leaves the pages beyond the window untouched
                current = FieldState(np.zeros(state.data.shape, dtype=np.complex128), y.time)
                current.data[kept] = y.data
            if observed:
                yield current
