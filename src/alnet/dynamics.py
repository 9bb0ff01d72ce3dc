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
for bit, by three facts, and a fourth makes a split of it exact:

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

A window of at least ``FORK_SITES`` sites, where ``fits`` allows a child
(both from ``forked``), steps on both CPUs.  Each stretch of more than one
step is cut at the vertex distance D = 0.7 W, with a halo of H = 4 sites
per step of the stretch on each side of the cut.  The parent steps the
near domain, the R of ``with_truncation(t, D + H)``.  A forked child steps
the far domain: the semi-infinite bonds' sites with
D - H < ``vertex_distance`` <= W, laid out as the ``build_star`` of their
gammas at truncation W - D + H, whose junction lies inside the halo.  The
child sends back its sites beyond D, and the parent writes both sides
into the full layout.  The fourth fact:

* a cut's influence, like the support, moves at most 4 sites a step, so
  over the stretch neither the near domain's wall nor the far star's
  junction reaches a site on the owning side of D, and the sites each
  side owns equal the serial window's bit for bit.

D moves work, not bits.  On zones (below) the far tails still cost about
twice as much a site, in the step's own scalar products of subnormal
words, and at 0.7 W both sides finish about together: on big-star's
window at t = 1 a stretch of 100 steps took 39 ms near and 42 ms far, and
39 and 41 ms at 0.75 W.  A
DivergenceError on either side (a halo may go non-finite where the serial
run does not), or a child that gives no answer, re-runs the stretch
serially from its start state, so every error names the serial run's
bond, site and time; after a failed fork the rest of the run steps
serially.  These step serially: a graph of more than nine leaves, which
one far star cannot hold; a window too short for D - H >= 1 and
D + H < W; and a stretch of one step, whose fork costs more than it
saves.  A stack splits, with one far star per run.

A stack of B >= 2 runs of fewer than ``FORK_SITES`` sites, whose windows
never reach the far-tail split, also steps on both CPUs where ``fits``
allows and the child's runs hold at least ``STACK_SITE_STEPS`` site
steps, where its work repays the fork.  A forked child steps the last
floor(B/2) runs as their own stack and sends each observed state; the
parent steps the first ceil(B/2) runs, each half serially, and yields
each observation as its block followed by the child's.  Every run's block
is that run's single-run bits in whatever stack it lies, so the yielded
states are the serial run's.  A DivergenceError on either side (the
child's names a site of its own layout) or a child that gives no answer
steps the whole stack serially from the last observed state for the rest
of the run, so every error is the serial run's, in stack order.

A window shorter than its truncation, a field with a +0 frontier, steps
each stretch on three zones of its layout, chosen by ``_zones`` from the
stretch's start state: contiguous sites of each bond, by
``vertex_distance``.  A split's near domain and far star take zones of
their own layouts; a window of the full truncation steps every site as
core.  Write reach(e) for the largest vertex distance of a site that has a
part (re or im) above e, s for the stretch's steps and rho for the largest
row sum of R + R^T.  The fifth fact:

* by the first fact, over s steps a site's stages depend only on the start
  state within 4 s graph sites.  Where every part there is at most e, and
  the density stays 1.0, every stage input's part stays at most
  e exp(rho dt (s + 1)) <= e exp(2 rho dt s): RK4 takes a step's parts by
  at most 1 + x + x^2/2 + x^3/6 + x^4/24 <= exp(x), and its stage inputs by
  at most 1 + x + x^2/2 + x^3/4 <= exp(2 x), with x = rho dt.  So, by
  induction over the stages, e = 2^-28 / (sqrt(max gamma) exp(2 rho dt s))
  keeps gamma |psi|^2 at 2^-55, and 1 + gamma |psi|^2 rounds to exactly
  1.0 at every stage of every site with ``vertex_distance > reach(e) + 4 s``.
  The factor of four to 2^-53 covers the rounding of any stretch of fewer
  than 2^45 steps, and an e no smaller than the smallest normal float
  makes an underflow's rounding relative too; a smaller e (an exponent
  that would overflow gives 0) leaves no linear zone.

The zones:

* core, ``vertex_distance <= reach(e) + 4 s`` and every internal bond:
  every operation of the derivative;
* linear, beyond the core: no density, which the workspace holds at 1.0
  there, and ``out *= density; out *= 1j`` as in the core, cheaper on
  normal words than any other form;
* tiny, beyond the core and beyond the reach of parts above 2^40 times
  the smallest normal float: ``_times_i`` in place of the two products, the
  same bits without a multiply, so without a microcode assist on a
  subnormal word.  Where a one-time probe of numpy's own products
  (``_real_view_exact``) disagrees with it, the tiny zone steps as linear.

On big-star's window at t = 1 (23961 sites, 2175 of its words subnormal) a
stretch of 100 steps took 83 ms on zones against 140 ms.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .forked import FORK_SITES, Child, NoAnswer, fits
from .state import FieldState, assert_finite
from .topology import (
    KIND_INTERNAL,
    CouplingCoefficients,
    GraphTopology,
    build_star,
    coupling_coefficients,
    with_truncation,
)

# the fewest site steps of the runs that a stack's child would step, from which ``evolve``
# forks it: on 2 vCPUs a fork plus join costs the run about 2.4 ms, and each run of 900
# sites adds about 20 us to a stack's step (59, 80 and 100 us for 1, 2 and 3 runs), so a
# child with one such run breaks even near 120 steps
STACK_SITE_STEPS = 120 * 900

# the fifth fact's e before its growth factor: parts of at most 2^-28 / sqrt(gamma) keep
# gamma |psi|^2 at 2^-55, a factor of four below the 2^-53 up to which 1 + gamma |psi|^2 rounds to 1
_LINEAR_PART = 2.0**-28
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# where the tiny zone starts: parts of at most 2^40 times the smallest normal float at the
# stretch's start.  Its form costs four passes where the two products cost two on normal
# words, and the products cost a microcode assist on each subnormal word: on big-star's
# window at t = 1 a stretch took 99, 88, 80 and 85 ms at 2^0, 2^20, 2^40 and 2^60 times the
# smallest normal float
_TINY_PART = _SMALLEST_NORMAL * 2.0**40


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
    ``density`` its factor ``1 + gamma |psi|^2``.  ``zones`` are the
    ``_Zones`` of the stretch being stepped, or None: every site is core.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.k1, self.k23, self.k = (np.empty(shape, dtype=np.complex128) for _ in range(3))
        self.density = np.empty(shape)
        self.zones: _Zones | None = None


class _Zones(NamedTuple):
    """The flat sites of each zone of the module docstring, as slices of contiguous sites.

    ``core`` computes its density, ``scaled`` (core and linear) multiplies
    by the density and by 1j, and ``tiny`` takes ``_times_i``.
    """

    core: tuple[slice, ...]
    scaled: tuple[slice, ...]
    tiny: tuple[slice, ...]


def _density(y: np.ndarray, gamma: np.ndarray, out: np.ndarray, density: np.ndarray) -> None:
    """``density = 1 + gamma |y|^2``, squared in ``out``'s memory before the neighbour sum fills it."""
    squares = out.view(np.float64)
    np.square(y.view(np.float64), out=squares)
    np.add(squares[0::2], squares[1::2], out=density)
    density *= gamma
    density += 1.0


def _times_i(out: np.ndarray, scratch: np.ndarray) -> None:
    """``out *= 1.0; out *= 1j`` without a multiply, bit for bit on finite words; ``scratch`` is real.

    With ``out = a + ib`` the two products are exact, and their signed
    zeros reduce to ``(copysign(0, a) - b) + i (a + 0)``: no multiply, so
    no microcode assist on a subnormal word.  ``_real_view_exact`` checks
    numpy's own products against it.
    """
    parts = out.view(np.float64)
    re, im = parts[0::2], parts[1::2]
    np.copysign(0.0, re, out=scratch)
    scratch -= im
    np.add(re, 0.0, out=im)
    re[...] = scratch


@functools.cache
def _real_view_exact() -> bool:
    """Whether ``_times_i`` gives numpy's ``*= 1.0; *= 1j`` on each pair of signed zero, subnormal and normal parts."""
    parts = [0.0, 5e-324, 1e-310, 3e-200, 0.7]
    parts += [-p for p in parts]
    pairs = np.array([(a, b) for a in parts for b in parts]).view(np.complex128).ravel()
    pairs = np.tile(pairs, 3)  # past the width of any vector loop, with a tail
    expected, got = pairs.copy(), pairs.copy()
    expected *= np.ones(pairs.shape)
    expected *= 1j
    _times_i(got, np.empty(pairs.shape))
    return np.array_equal(expected.view(np.uint64), got.view(np.uint64))


def _derivative(
    y: np.ndarray, couplings: CouplingCoefficients, out: np.ndarray, density: np.ndarray, zones: _Zones | None = None
) -> np.ndarray:
    """Write ``i (R + R^T) y (1 + gamma |y|^2)`` into ``out``, on ``zones`` if any; ``density`` is scratch.

    On zones, ``density`` holds 1.0 at the linear sites."""
    if zones is None:
        _density(y, couplings.site_gamma, out, density)
        couplings.neighbors(y, out)
        out *= density
        out *= 1j
        return out
    for s in zones.core:
        _density(y[s], couplings.site_gamma[s], out[s], density[s])
    couplings.neighbors(y, out)
    for s in zones.scaled:
        part = out[s]
        part *= density[s]
        part *= 1j
    for s in zones.tiny:
        _times_i(out[s], density[s])
    return out


def _runs(mask: np.ndarray) -> tuple[slice, ...]:
    """The runs of True in ``mask``, as slices."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return tuple(slice(a, b) for a, b in zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _zones(y: np.ndarray, couplings: CouplingCoefficients, steps: int, dt: float) -> _Zones | None:
    """The zones for ``steps`` steps from ``y`` on R's layout, by the fifth fact; None where no site is linear."""
    rho = float(couplings.neighbors(np.ones(y.shape)).max())  # R's weights are positive
    bound = _LINEAR_PART / math.sqrt(couplings.site_gamma.max()) * math.exp(-2.0 * rho * dt * steps)
    if not bound >= _SMALLEST_NORMAL:
        return None
    top = couplings.topology
    distance = np.tile(top.vertex_distance, len(couplings.topologies))
    parts = np.abs(y.view(np.float64))
    largest = np.maximum(parts[0::2], parts[1::2])  # NaN stays, so a non-finite site is core

    def reach(limit: float) -> int:
        return int(distance[~(largest <= limit)].max(initial=0))

    linear = reach(bound) + 4 * steps
    if linear >= top.truncation:
        return None
    tiny = max(linear, reach(_TINY_PART)) if _real_view_exact() else top.truncation
    return _Zones(_runs(distance <= linear), _runs(distance <= tiny), _runs(distance > tiny))


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
    _derivative(y, couplings, k1, ws.density, ws.zones)
    np.add(y, np.multiply(half, k1, out=out), out=out)
    _derivative(out, couplings, k23, ws.density, ws.zones)
    np.add(y, np.multiply(half, k23, out=out), out=out)
    _derivative(out, couplings, k, ws.density, ws.zones)
    np.add(y, np.multiply(dt, k, out=out), out=out)
    k23 += k
    _derivative(out, couplings, k, ws.density, ws.zones)
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


def _embed(y: FieldState, sites: np.ndarray, shape: tuple[int]) -> FieldState:
    """``y`` written at ``sites`` of a full layout of ``shape``, +0 elsewhere.

    ``np.zeros`` leaves the pages beyond the window untouched.
    """
    out = FieldState(np.zeros(shape, dtype=np.complex128), y.time)
    out.data[sites] = y.data
    return out


def _serial_window(couplings: CouplingCoefficients, distance: np.ndarray, truncation: int) -> tuple:
    """The window's truncation, R, sites of the full layout (None: all of them) and workspace."""
    if truncation == couplings.topology.truncation:
        return truncation, couplings, None, StepWorkspace(distance.shape)
    kept = np.flatnonzero(distance <= truncation)
    layout = coupling_coefficients(*(with_truncation(t, truncation) for t in couplings.topologies))
    return truncation, layout, kept, StepWorkspace(kept.shape)


def _serial_stretch(current: FieldState, window: tuple, steps: int, dt: float) -> FieldState:
    """``steps`` steps of ``current`` on a ``_serial_window``, written back into the full layout.

    A window shorter than the truncation steps on zones; the full layout does not."""
    _, layout, kept, workspace = window
    if kept is None:
        return _run(current, layout, steps, dt, workspace)
    y = _run(FieldState(current.data[kept], current.time), layout, steps, dt, workspace, zoned=True)
    return _embed(y, kept, current.data.shape)


def _run(
    y: FieldState, couplings: CouplingCoefficients, steps: int, dt: float, workspace=None, zoned: bool = False
) -> FieldState:
    """``steps`` steps of ``y`` on one workspace, ``workspace`` or a new one, on ``_zones`` if ``zoned``."""
    workspace = StepWorkspace(y.data.shape) if workspace is None else workspace
    workspace.zones = _zones(y.data, couplings, steps, dt) if zoned else None
    if workspace.zones is not None:
        workspace.density.fill(1.0)  # the linear sites'; core sites overwrite theirs, tiny sites use theirs as scratch
    for _ in range(steps):
        y = step(y, couplings, dt, workspace)
    return y


def _step_far(couplings, start: FieldState, steps: int, dt: float, zoned: bool, owned: np.ndarray, writer) -> None:
    """A stepping child's work: ``steps`` steps of ``start`` (zoned if ``zoned``), its ``owned`` sites on ``writer``.

    Its halo may overflow where the serial run does not: it warns of nothing, and a
    DivergenceError sends nothing, so the parent gets no answer and steps the stretch."""
    with np.errstate(all="ignore"), contextlib.suppress(DivergenceError):
        writer.send_bytes(_run(start, couplings, steps, dt, zoned=zoned).data[owned])


def _split_stretch(
    current: FieldState, couplings: CouplingCoefficients, distance: np.ndarray, truncation: int, steps: int, dt: float
) -> FieldState | None:
    """One stretch on the window of ``truncation``, its far tails stepped by a forked child.

    Both sides step on zones of their own layouts where the window is
    shorter than the full truncation.  Returns the stretch's last state in
    the full layout.  Returns None,
    for the caller to step the stretch serially, on a window too short for
    a cut with a halo on each side, or when either side raised
    DivergenceError.  A child that gives no answer raises ``NoAnswer``.
    """
    cut = 7 * truncation // 10  # the far tails cost about twice as much a site
    halo = 4 * steps
    if cut - halo < 1 or cut + halo >= truncation:
        return None
    near_sites = np.flatnonzero(distance <= cut + halo)
    far_sites = np.flatnonzero((distance > cut - halo) & (distance <= truncation))
    far_owned = distance[far_sites] > cut
    far = coupling_coefficients(*(
        build_star([b.gamma for b in t.bonds if b.kind != KIND_INTERNAL], truncation - cut + halo)
        for t in couplings.topologies
    ))
    start = FieldState(current.data[far_sites], current.time)
    tail = np.empty(np.count_nonzero(far_owned), dtype=np.complex128)
    zoned = truncation < couplings.topology.truncation
    with contextlib.suppress(DivergenceError), \
            Child(_step_far, far, start, steps, dt, zoned, far_owned, duplex=False) as child:
        near = coupling_coefficients(*(with_truncation(t, cut + halo) for t in couplings.topologies))
        y = _run(FieldState(current.data[near_sites], current.time), near, steps, dt, zoned=zoned)
        child.recv(into=tail)
        child.ended()
        out = _embed(y, near_sites, current.data.shape)  # its halo, then the child's sites over it
        out.data[far_sites[far_owned]] = tail
        return out
    return None


def _observations(
    current: FieldState, couplings: CouplingCoefficients, config: SimConfig, done: int = 0
) -> Iterator[FieldState]:
    """The observed states after the run's first ``done`` steps, from ``current``, the state after them.

    ``done`` is 0 or the step of an observation.  The stretches, the window
    and the far-tail split of the module docstring; this process steps every
    run of the stack.
    """
    n_steps, stride, dt = config.n_steps, config.output_stride, config.dt
    band = 4 * stride + 1
    full = couplings.topology
    distance = np.tile(full.vertex_distance, len(couplings.topologies))
    window = None  # the last serial stretch's, from _serial_window
    split = len(full.leaves) <= 9  # one far star holds at most nine leaves
    while done < n_steps:  # a stretch: step 1 alone, then the steps up to each observation
        steps = 1 if done == 0 else min(stride - done % stride, n_steps - done)
        truncation = _window(current.data, full, band)
        if window is not None and window[0] != truncation:
            window = None  # free its workspace before the next one's
        after = None
        # a fork costs more than the half step that it saves on a stretch of one step
        if split and steps > 1 and np.count_nonzero(distance <= truncation) >= FORK_SITES and fits():
            try:
                after = _split_stretch(current, couplings, distance, truncation, steps, dt)
            except NoAnswer as exc:  # after a failed fork the rest of the run steps serially
                split = exc.started
        if after is not None:
            window = None
        else:
            if window is None:
                window = _serial_window(couplings, distance, truncation)
            after = _serial_stretch(current, window, steps, dt)
        current = after
        done += steps
        if done % stride == 0 or done == n_steps:
            yield current


def _step_runs(couplings: CouplingCoefficients, start: FieldState, config: SimConfig, writer) -> None:
    """A stack child's work: the run of ``start``, each observed state's bytes on ``writer``.

    It warns of nothing, and a DivergenceError ends it: the parent gets no answer."""
    with np.errstate(all="ignore"), contextlib.suppress(DivergenceError):
        for state in _observations(start, couplings, config):
            writer.send_bytes(state.data)


def _split_stack(start: FieldState, couplings: CouplingCoefficients, config: SimConfig) -> Iterator[FieldState]:
    """The observed states after ``start``, the last half of the stack's runs stepped by a forked child.

    Each yielded state is the parent's first ceil(B/2) runs followed by the
    child's.  Ends early, for the caller to step the rest of the run from the
    last state yielded, on a DivergenceError or a child that gives no answer.
    """
    runs = couplings.topologies
    first = (len(runs) + 1) // 2
    cut = first * couplings.topology.n_sites
    tail = FieldState(start.data[cut:], start.time)
    with contextlib.suppress(DivergenceError, NoAnswer), \
            Child(_step_runs, coupling_coefficients(*runs[first:]), tail, config, duplex=False) as child:
        head = FieldState(start.data[:cut], start.time)
        for y in _observations(head, coupling_coefficients(*runs[:first]), config):
            out = FieldState(np.empty_like(start.data), y.time)
            out.data[:cut] = y.data
            child.recv(into=out.data[cut:])
            yield out


def evolve(
    state: FieldState, couplings: CouplingCoefficients, config: SimConfig
) -> Iterator[FieldState]:
    """Integrate to ``config.t_final``, yielding the observed states.

    Yields a copy of the initial state, then the state after every
    ``output_stride`` steps and after the final step, all in R's full
    layout.  The steps run on the window of the module docstring,
    re-chosen after the first step and at every observation; a big
    window's far tails, or the last half of a long run's stack, step in a
    forked child.
    Each yielded state owns its data: ``step`` and the embedding return
    fresh arrays and no later step writes to them.  A stacked state is
    integrated as in ``step``, and one workspace serves every serial step
    on one window.  A missing ``t_final`` raises InvalidParameterError on
    the first ``next()`` (from ``config.n_steps``), and so does a state
    whose shape does not fit R.
    """
    n_steps = config.n_steps
    _check_shape(state.data, couplings)
    current = state.copy()
    yield current
    done = 0
    child_runs = len(couplings.topologies) // 2
    if child_runs and current.data.size < FORK_SITES \
            and child_runs * couplings.topology.n_sites * n_steps >= STACK_SITE_STEPS and fits():
        with contextlib.closing(_split_stack(current, couplings, config)) as halves:
            for current in halves:
                done = min(done + config.output_stride, n_steps)
                yield current
    rest = _observations(current, couplings, config, done)
    del current  # else this frame would keep the state the rest starts from for the whole run
    yield from rest
