"""Conserved quantities of the graph dynamics and drift auditing.

Three layers: the norm, the pair sum Z, and one ladder for every C_m.

* ``norm``: N = sum over bonds of (1/gamma) sum_n ln(1 + gamma |psi_n|^2).
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
  last), a = conj(sqrt(gamma) R psi) and w = gamma_1 / gamma.
  ``higher_constants_recursive`` runs it on one chain field, the graph of
  one bond (a_n = q*_{n+1}, w = 1).  Under the sum rule a glued state
  gives the chain values of ``universal_chain_field``'s q; off the rule
  the constants exist, but the flow does not conserve them.

The ladder assumes the field has decayed at the truncated ends; boundary
sites contribute O(|q_end|^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DivergenceError, InvalidParameterError
from .state import FieldState, _check_shape, partial_norms
from .topology import GraphTopology, ROOT_LABEL, coupling_coefficients

DRIFT_FLOOR = 1e-12


def _summed(bond_norms: np.ndarray) -> float:
    """The total norm of one row of partial norms; ``norm`` and ``snapshot`` share it."""
    return float(sum(bond_norms))


def norm(state: FieldState, topology: GraphTopology) -> float:
    """Total conserved norm: the sum of the per-bond partial norms."""
    return _summed(partial_norms(state, topology))


def z_quantity(state: FieldState, topology: GraphTopology) -> complex:
    """Complex conserved pair sum: E = -2 Re Z, J = 2 Im Z."""
    _check_shape(state, topology)
    return complex(np.vdot(state.data, coupling_coefficients(topology).forward(state.data)))


@dataclass(frozen=True)
class _GraphTables:
    """What ``snapshot`` and ``universal_chain_field`` read, built once per topology.

    ``entries`` pairs each child's first site that does not follow its parent
    in the layout (row 0) with the parent's last site (row 1).  ``siblings``
    pairs each later child's sites with the first child's over their common
    length.
    """

    sqrt_gamma: np.ndarray
    weight: np.ndarray
    entries: np.ndarray
    siblings: np.ndarray


@lru_cache(maxsize=32)
def _graph_tables(topology: GraphTopology) -> _GraphTables:
    slices, vertices = topology.slices, topology.vertices
    entries, siblings = [], []
    for parent, (first, *others) in vertices.items():
        for child in others:
            entries.append((slices[child].start, slices[parent].stop - 1))
            k = min(topology.bond(first).length, topology.bond(child).length)
            siblings += [(slices[child].start + i, slices[first].start + i) for i in range(k)]
    return _GraphTables(
        np.sqrt(topology.site_gamma),
        topology.bond(ROOT_LABEL).gamma / topology.site_gamma,
        np.array(entries, dtype=np.intp).reshape(-1, 2).T,
        np.array(siblings, dtype=np.intp).reshape(-1, 2).T,
    )


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
    t = _graph_tables(topology)
    stop = topology.slices[topology.leaves[0]].stop  # the chain is the layout up to its first leaf
    q = t.sqrt_gamma[:stop] * state.data[:stop]
    later, first = t.sqrt_gamma[t.siblings] * state.data[t.siblings]
    return q, float(np.abs(later - first).max(initial=0.0))


def _check_m_max(m_max: int) -> None:
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        raise InvalidParameterError("m_max must be an integer >= 1")


@np.errstate(over="ignore", invalid="ignore")
def _ladder(
    q: np.ndarray,
    ahead: np.ndarray,
    m_max: int,
    entries: np.ndarray = np.zeros((2, 0), dtype=np.intp),
    weight: np.ndarray | None = None,
) -> list[complex]:
    """C_1 .. C_m_max of the ladder on ``q`` (see the module docstring).

    The site before n is n - 1, except at site 0, which has none, and at
    each site of ``entries[0]``, which reads the matching ``entries[1]``.
    ``ahead`` is a_n and ``weight`` is w_n (1 when None).  The scratch is
    two (m_max, n) buffers: ``h`` holds h^(m) and then g^(m); ``back``
    holds h^(m) at the site before and then m f^(m), the form of the
    series logarithm that needs no factor j / m.  C_m multiplies 2m field
    values, so a large finite field can overflow it: that raises
    OverflowError, and numpy's warnings are silenced.
    """
    _check_m_max(m_max)
    h = np.empty((m_max, q.shape[0]), dtype=np.complex128)
    back = np.empty_like(h)
    carried, term = np.empty_like(q), np.empty_like(q)
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
    if weight is not None:
        back *= weight
    sums = back.sum(axis=1)
    if not np.isfinite(sums).all():
        raise OverflowError("a conserved constant C_m overflows")
    return [complex(c) / m for m, c in enumerate(sums, start=1)]


def higher_constants_recursive(
    chain_field: Sequence[complex] | np.ndarray, m_max: int
) -> list[complex]:
    """C_1 .. C_m_max of a plain chain field: the ladder on the graph of one bond.

    The field must be effectively zero at both ends of the array.  Exact
    zeros get the limit of nearby nonzero fields, and a field of fewer
    than two sites has all constants zero.  A field so large that a
    constant overflows raises InvalidParameterError.
    """
    q = np.ascontiguousarray(chain_field, dtype=np.complex128)
    if q.ndim != 1:
        raise InvalidParameterError("chain_field must be one-dimensional")
    ahead = np.zeros_like(q)
    ahead[:-1] = np.conj(q[1:])
    try:
        return _ladder(q, ahead, m_max)
    except OverflowError:
        raise InvalidParameterError(f"chain field too large: C_1 .. C_{m_max} overflow") from None


@dataclass(frozen=True)
class ConservedSnapshot:
    """All audited quantities at one instant; C holds (C2, ..., C_m_max).

    ``bond_norms`` holds each bond's partial norm in ``topology.labels``
    order, and N is their sum.  ``chain_residual`` is the sibling-gluing
    residual of ``universal_chain_field``.
    """

    time: float
    bond_norms: tuple[float, ...]
    N: float
    Z: complex
    E: float
    J: float
    C: tuple[complex, ...]
    chain_residual: float


def snapshot(state: FieldState, topology: GraphTopology, m_max: int = 3) -> ConservedSnapshot:
    """Evaluate the hierarchy up to C_m_max on one state, on any topology.

    R is applied once: Z is ``z_quantity``'s pair sum and the ladder's term
    ahead is read from the same R psi.  Every C_m comes from the graph
    ladder; ``chain_residual`` is ``universal_chain_field``'s gluing
    residual, a diagnostic only.  A field so large that a constant
    overflows raises DivergenceError at the site of the largest |q|.
    """
    _, residual = universal_chain_field(state, topology)  # checks the shape
    t = _graph_tables(topology)
    psi = state.data
    r_psi = coupling_coefficients(topology).forward(psi)
    z = complex(np.vdot(psi, r_psi))
    q = t.sqrt_gamma * psi
    try:
        cs = _ladder(q, np.conj(t.sqrt_gamma * r_psi), m_max, t.entries, t.weight)
    except OverflowError:
        bond, site = topology.locate(int(np.argmax(np.abs(q))))
        raise DivergenceError(bond, site, state.time, f"C_{m_max} overflows at the largest |q|") from None
    bond_norms = partial_norms(state, topology)
    return ConservedSnapshot(
        time=state.time,
        bond_norms=tuple(bond_norms.tolist()),
        N=_summed(bond_norms),
        Z=z,
        E=-2.0 * z.real,
        J=2.0 * z.imag,
        C=tuple(cs[1:]),
        chain_residual=residual,
    )


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


def drift_audit(
    states: Iterable[FieldState], topology: GraphTopology, m_max: int = 4
) -> DriftReport:
    """Audit conservation over observed states, read once and in order.

    Each state is reduced to its ``ConservedSnapshot`` and not kept, so
    ``states`` may be the iterator ``evolve`` returns.  An ``m_max`` below 1
    or no states at all raise InvalidParameterError.
    """
    snaps = tuple(snapshot(s, topology, m_max) for s in states)
    if not snaps:
        raise InvalidParameterError("trajectory must contain at least one state")
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
    for i, m in enumerate(range(2, m_max + 1)):
        drifts[f"C{m}"] = rel([s.C[i] for s in snaps], base.C[i])
    return DriftReport(snapshots=snaps, drifts=drifts, chain_residual=residual)
