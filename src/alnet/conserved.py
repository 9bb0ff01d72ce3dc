"""Conserved quantities of the graph dynamics and drift auditing.

Three layers: the norm, the pair sum Z, and one ladder for every C_m.

* N = sum over bonds of (1/gamma) sum_n ln(1 + gamma |psi_n|^2), the sum
  of ``state.partial_norms``.
* ``z_quantity``: the complex pair sum Z = sum_n psi*_n (R psi)_n, where R
  is the topology's vertex-weighted forward shift, so the vertex cross
  terms enter with their sqrt(gamma_parent/gamma_child) weights.  Its real
  and imaginary parts carry the energy E = -2 Re Z and the norm current
  J = 2 Im Z (positive for transport toward larger site index, i.e. from
  the incoming bond through the vertex).
* One division-free ladder for every higher constant C_m.  With p(n) the
  site before n and a_n the conjugate field one site ahead,

      h_n^(1) = -q_n,
      h_n^(m) = h_{p(n)}^(m-1) - q*_n sum_{l=1}^{m-1} h_{p(n)}^(m-l) h_n^(l),

  (h = 0 before the first site) gives g_n^(m) = a_n h_n^(m); the series
  logarithm f_m = g_m - (1/m) sum_{j<m} j f_j g_{m-j} then gives
  C_m = sum_n w_n f_m^(n).  Each C_m is a polynomial in q and q*, so it
  is continuous in the field, exact zeros included.  ``snapshot`` runs
  the ladder on the graph itself: q = sqrt(gamma) psi on the flat layout,
  p(n) the site toward the root (a child's first site reads its parent's
  last), a = conj(sqrt(gamma) R psi) and w = gamma_1 / gamma.  On one
  plain chain field, the graph of one bond, a_n = q*_{n+1} and w = 1.
  Under the sum rule a glued state gives those chain values of
  ``universal_chain_field``'s q; off the rule the constants exist, but the
  flow does not conserve them.

``drift_audit`` folds the snapshots of one run, in time order, into the
maximum relative drift of each quantity.

``SnapshotFold`` is ``conserved-audit``'s fold, its snapshots computed in
a forked worker where ``forked.fits`` allows and the same bits either way.

Every table read here is a cached property of the topology, built on its
first use: R's tables (``couplings`` wraps them), ``sqrt_gamma``, the
ladder's weights ``ladder_weight`` and the ``vertex_tables`` that pair the
sites across each vertex.

The ladder assumes the field has decayed at the truncated ends; boundary
sites contribute O(|q_end|^2).  ``conserved-audit`` enforces this: the
boundary guard of ``experiments.observe`` stops a run that reaches them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .forked import Child, NoAnswer, fits
from .state import FieldState, _check_shape, partial_norms
from .topology import GraphTopology

DRIFT_FLOOR = 1e-12
# the ladder's scratch is two (m_max, n) complex buffers, 1 KB a site at this bound
M_MAX_LIMIT = 32


def z_quantity(state: FieldState, topology: GraphTopology) -> complex:
    """Complex conserved pair sum: E = -2 Re Z, J = 2 Im Z."""
    _check_shape(state, topology)
    return complex(np.vdot(state.data, topology.couplings.forward(state.data)))


def universal_chain_field(
    state: FieldState, topology: GraphTopology
) -> tuple[np.ndarray, float]:
    """Collapse a graph state to the single chain field q = sqrt(gamma) psi.

    The chain follows the incoming bond and then the first child at every
    vertex.  Returns ``(q, residual)`` where the residual is the largest
    pointwise disagreement between sibling bonds anywhere in the graph;
    it vanishes (to integrator accuracy) for states evolved from a glued
    profile under the coupling sum rule.
    """
    _check_shape(state, topology)
    sqrt_gamma, (_, siblings) = topology.sqrt_gamma, topology.vertex_tables
    stop = topology.slices[topology.leaves[0]].stop  # the chain is the layout up to its first leaf
    q = sqrt_gamma[:stop] * state.data[:stop]
    later, first = sqrt_gamma[siblings] * state.data[siblings]
    return q, float(np.abs(later - first).max(initial=0.0))


def _check_m_max(m_max: int) -> None:
    """The hierarchy depth of ``snapshot`` and of a run's config: an integer in 1 .. M_MAX_LIMIT."""
    if not isinstance(m_max, int) or isinstance(m_max, bool) or not 1 <= m_max <= M_MAX_LIMIT:
        raise InvalidParameterError(f"m_max must be an integer from 1 to {M_MAX_LIMIT}")


class SnapshotWorkspace:
    """Scratch of the ladder for one m_max on n sites, reused by every ``snapshot`` of a run.

    ``h`` and ``back`` are the two (m_max, n) complex buffers of ``_ladder``;
    ``carried`` and ``term`` hold one row each.
    """

    def __init__(self, m_max: int, n_sites: int):
        _check_m_max(m_max)
        self.h, self.back = (np.empty((m_max, n_sites), dtype=np.complex128) for _ in range(2))
        self.carried, self.term = (np.empty(n_sites, dtype=np.complex128) for _ in range(2))


@np.errstate(over="ignore", invalid="ignore")
def _ladder(
    q: np.ndarray,
    ahead: np.ndarray,
    m_max: int,
    entries: np.ndarray,
    weight: np.ndarray,
    workspace: SnapshotWorkspace | None = None,
) -> list[complex]:
    """C_1 .. C_m_max of the ladder on ``q`` (see the module docstring).

    The site before n is n - 1, except at site 0, which has none, and at
    each site of ``entries[0]``, which reads the matching ``entries[1]``.
    ``ahead`` is a_n and ``weight`` is w_n.  The scratch is ``workspace``,
    or a new one: ``h`` holds h^(m) and then g^(m); ``back`` holds h^(m)
    at the site before and then m f^(m), the form of the series logarithm
    that needs no factor j / m.  Every entry is written before it is read,
    so a reused workspace gives the same bits.  C_m multiplies 2m field
    values, so a large finite field can overflow it: that raises
    OverflowError, and numpy's warnings are silenced.
    """
    _check_m_max(m_max)
    ws = SnapshotWorkspace(m_max, q.shape[0]) if workspace is None else workspace
    if ws.h.shape != (m_max, q.shape[0]):
        raise InvalidParameterError(
            f"a ladder workspace of shape {ws.h.shape} does not fit m_max {m_max} on {q.shape[0]} sites"
        )
    h, back, carried, term = ws.h, ws.back, ws.carried, ws.term
    np.negative(q, out=h[0])
    qc = np.conj(q)
    for m in range(2, m_max + 1):
        before = back[m - 2]
        before[1:] = h[m - 2][:-1]
        before[:1] = 0.0
        before[entries[0]] = h[m - 2][entries[1]]
        np.multiply(before, h[0], out=carried)
        for l in range(2, m):
            carried += np.multiply(back[m - l - 1], h[l - 1], out=term)
        carried *= qc
        np.subtract(before, carried, out=h[m - 1])
    h *= ahead
    for m in range(1, m_max + 1):
        mf = np.multiply(h[m - 1], m, out=back[m - 1])
        for j in range(1, m):
            mf -= np.multiply(back[j - 1], h[m - j - 1], out=term)
    back *= weight
    sums = back.sum(axis=1)
    if not np.isfinite(sums).all():
        raise OverflowError("a conserved constant C_m overflows")
    return [complex(c) / m for m, c in enumerate(sums, start=1)]


@dataclass(frozen=True)
class ConservedSnapshot:
    """All audited quantities at one instant; C holds (C2, ..., C_m_max).

    N is the sum of the partial norms.  ``chain_residual`` is the
    sibling-gluing residual of ``universal_chain_field``.
    """

    time: float
    N: float
    Z: complex
    E: float
    J: float
    C: tuple[complex, ...]
    chain_residual: float


def snapshot(
    state: FieldState,
    topology: GraphTopology,
    m_max: int = 3,
    workspace: SnapshotWorkspace | None = None,
) -> ConservedSnapshot:
    """Evaluate the hierarchy up to C_m_max on one state, on any topology.

    R is applied once: Z is ``z_quantity``'s pair sum and the ladder's term
    ahead is read from the same R psi.  Every C_m comes from the graph
    ladder, whose scratch is ``workspace`` (a ``SnapshotWorkspace`` of
    ``m_max`` on the topology's sites) or a new one; ``chain_residual`` is
    ``universal_chain_field``'s gluing residual, a diagnostic only.  A
    field so large that a constant overflows raises DivergenceError at the
    site of the largest |q|.
    """
    _, residual = universal_chain_field(state, topology)  # checks the shape
    psi, sqrt_gamma = state.data, topology.sqrt_gamma
    r_psi = topology.couplings.forward(psi)
    z = complex(np.vdot(psi, r_psi))
    q = sqrt_gamma * psi
    try:
        ahead, entries = np.conj(sqrt_gamma * r_psi), topology.vertex_tables[0]
        cs = _ladder(q, ahead, m_max, entries, topology.ladder_weight, workspace)
    except OverflowError:
        bond, site = topology.locate(int(np.argmax(np.abs(q))))
        raise DivergenceError(bond, site, state.time, f"C_{m_max} overflows at the largest |q|") from None
    return ConservedSnapshot(
        time=state.time,
        N=float(sum(partial_norms(state, topology))),
        Z=z,
        E=-2.0 * z.real,
        J=2.0 * z.imag,
        C=tuple(cs[1:]),
        chain_residual=residual,
    )


def _serve(topology: GraphTopology, m_max: int, pipe) -> None:
    """The worker's loop: one snapshot per state received on ``pipe``, its outcome sent back on it.

    It ends with the pipe, which the parent closes, also on Ctrl-C."""
    workspace = SnapshotWorkspace(m_max, topology.n_sites)
    data = np.empty(topology.n_sites, dtype=np.complex128)
    while True:
        time = pipe.recv()
        pipe.recv_bytes_into(data)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                outcome = snapshot(FieldState(data, time), topology, m_max, workspace)
        except Exception as exc:
            outcome = exc
        pipe.send(outcome)


class SnapshotFold(contextlib.AbstractContextManager):
    """The snapshots of one run, a fold over its observed states: one ``add`` per observation.

    Where ``forked.fits`` allows, the first ``add`` forks a worker that
    computes each ``snapshot`` while the caller steps on; elsewhere, or
    when the fork fails, ``add`` calls ``snapshot`` in-process.  A worker
    that gives no answer is closed, and the state in flight and every later
    one go in-process.  Either way one ``SnapshotWorkspace``, the ladder's
    scratch, serves the run, and ``snapshots()`` returns the same bits, in
    observation order.
    At most one snapshot is in flight: ``add`` reads the outcome of the
    previous observation before it sends the next, and raises its error.
    Use the fold as a context manager.  Leaving it reads the outcome in
    flight, whose error replaces an error the caller raised after sending
    it (a later step's DivergenceError, the boundary guard's
    InconclusiveRunError), so errors surface in the serial run's order;
    then the worker is closed, also on KeyboardInterrupt.
    """

    def __init__(self, topology: GraphTopology, m_max: int):
        _check_m_max(m_max)
        self.topology, self.m_max = topology, m_max
        self.snaps: list[ConservedSnapshot] = []
        self.pending: FieldState | None = None  # the state whose snapshot is in flight
        self.worker: Child | None = None
        self.workspace: SnapshotWorkspace | None = None

    def add(self, state: FieldState) -> None:
        _check_shape(state, self.topology)
        if self.worker is None and self.workspace is None:  # the first add
            with contextlib.suppress(NoAnswer):
                self.worker = Child(_serve, self.topology, self.m_max, duplex=True) if fits() else None
            if self.worker is None:
                self._in_process()
        self._collect()
        if self.worker is not None:
            try:
                self.worker.pipe.send(state.time)
                self.worker.pipe.send_bytes(state.data)
                self.pending = state
                return
            except OSError:  # BrokenPipeError: the worker has ended
                self._in_process()
        self.snaps.append(snapshot(state, self.topology, self.m_max, self.workspace))

    def _in_process(self) -> None:
        """Close the worker, if any: every snapshot from here on is computed in-process."""
        if self.worker is not None:
            self.worker.close()
            self.worker = None
        self.workspace = SnapshotWorkspace(self.m_max, self.topology.n_sites)

    def _collect(self) -> None:
        state, self.pending = self.pending, None
        if state is None:
            return
        try:
            outcome = self.worker.recv()
        except NoAnswer:
            self._in_process()
            outcome = snapshot(state, self.topology, self.m_max, self.workspace)
        if isinstance(outcome, Exception):
            raise outcome
        self.snaps.append(outcome)

    def snapshots(self) -> list[ConservedSnapshot]:
        """Every observation's snapshot so far, after the one in flight."""
        self._collect()
        return self.snaps

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None or issubclass(exc_type, Exception):
                self._collect()
        finally:
            if self.worker is not None:
                self.pending = None
                self.worker.close()


@dataclass(frozen=True)
class DriftReport:
    """Per-observation snapshots plus max relative drifts.

    ``drifts`` keys: "N", "E", "J", "C2" .. "C<m_max>".  Each drift is
    max_t |Q(t) - Q(0)| / max(|Q(0)|, 1e-12).  ``chain_residual`` is the
    largest sibling-gluing residual seen over the trajectory.
    """

    snapshots: tuple[ConservedSnapshot, ...]
    drifts: dict[str, float]
    chain_residual: float


def drift_audit(snapshots: Iterable[ConservedSnapshot]) -> DriftReport:
    """The drifts of one run's snapshots, taken in time order; none at all raise InvalidParameterError."""
    snaps = tuple(snapshots)
    if not snaps:
        raise InvalidParameterError("drift_audit needs at least one snapshot")
    residual = max(s.chain_residual for s in snaps)
    base = snaps[0]

    def rel(values, ref) -> float:
        scale = max(abs(ref), DRIFT_FLOOR)
        return max(abs(val - ref) for val in values) / scale

    drifts = {
        "N": rel([s.N for s in snaps], base.N),
        "E": rel([s.E for s in snaps], base.E),
        "J": rel([s.J for s in snaps], base.J),
    }
    for i in range(len(base.C)):
        drifts[f"C{i + 2}"] = rel([s.C[i] for s in snaps], base.C[i])
    return DriftReport(snapshots=snaps, drifts=drifts, chain_residual=residual)
