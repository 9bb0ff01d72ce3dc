"""Conserved quantities of the graph dynamics and drift auditing.

Four layers, from cheap to general:

* ``norm``: N = sum over bonds of (1/gamma) sum_n ln(1 + gamma |psi_n|^2).
* ``z_quantity``: the complex pair sum Z = sum_n psi*_n (R psi)_n, where R
  is the topology's vertex-weighted forward shift, so the vertex cross
  terms enter with their sqrt(gamma_parent/gamma_child) weights.  Its real
  and imaginary parts carry the energy E = -2 Re Z and the norm current
  J = 2 Im Z (positive for transport toward larger site index, i.e. from
  the incoming bond through the vertex).
* ``higher_constants_direct``: explicit stencil formulas for C2 and C3,
  evaluated on the whole flat field with the neighbors R psi, R R psi and
  R^T psi in place of psi_{n+1}, psi_{n+2} and psi_{n-1}.
* ``higher_constants_recursive``: the general C_m ladder on a plain chain
  field.  Its terms g_n^(m) = q*_{n+1} h_n^(m) come from the division-free
  recursion

      h_n^(1) = -q_n,
      h_n^(m) = h_{n-1}^(m-1) - q*_n sum_{l=1}^{m-1} h_{n-1}^(m-l) h_n^(l),

  with h_{-1} = 0 and q = 0 past the last site.  It is followed by the
  formal series logarithm f_m = g_m - (1/m) sum_{j<m} j f_j g_{m-j},
  giving C_m = sum_n f_m^(n).  Every C_m is thus a polynomial in q and
  q*, continuous in the field, exact zeros included.
  Graph states are first collapsed to the universal chain field
  q = sqrt(gamma) psi along the first-child path; under the coupling sum
  rule every child yields the same q, and the disagreement between
  siblings is reported as a residual diagnostic.  Without the sum rule
  the collapse is meaningless, so ``snapshot`` refuses orders above 3.

The recursion assumes the field has decayed at both array ends; boundary
sites contribute O(|q_end|^2).  Normalization note: with these
conventions the recursive C2, C3 agree with the direct stencils exactly
(calibration factor 1); the acceptance tests re-derive the factor rather
than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .state import FieldState, _check_shape, bond_field, partial_norms
from .topology import GraphTopology, ROOT_LABEL, coupling_coefficients, is_reflectionless

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


def higher_constants_direct(state: FieldState, topology: GraphTopology) -> tuple[complex, complex]:
    """Explicit (C2, C3) from their local stencils.

    The stencil spans sites n-1 .. n+2, read through the shift operator,
    so on a bond shorter than the stencil it reaches on into the next
    vertex's children with their weights.
    """
    _check_shape(state, topology)
    couplings = coupling_coefficients(topology)
    g = topology.site_gamma
    c = state.data
    p1 = couplings.forward(c)
    p2 = couplings.forward(p1)
    m1 = couplings.backward(c)
    gc = 1.0 + g * (c.real**2 + c.imag**2)
    gp = 1.0 + g * (p1.real**2 + p1.imag**2)
    cp1 = np.conj(p1)
    w = cp1 * c
    # C2 density: psi*_{n+1} psi_{n-1} (1 + g|psi_n|^2) + (g/2) (psi*_{n+1} psi_n)^2
    c2 = np.sum(cp1 * m1 * gc + (g / 2.0) * w * w)
    # C3 density: [psi*_{n+2} psi_{n-1} (1 + g|psi_{n+1}|^2)
    #   + g psi*_n psi*_{n+1} psi_{n-1}^2 + g psi*_{n+1}^2 psi_n psi_{n-1}] (1 + g|psi_n|^2)
    #   + (g^2/3) (psi*_{n+1} psi_n)^3
    t = m1 * gc * (np.conj(p2) * gp + g * cp1 * (np.conj(c) * m1 + w))
    c3 = np.sum(t + (g * g / 3.0) * w**3)
    gamma1 = topology.bond(ROOT_LABEL).gamma
    return complex(-gamma1 * c2), complex(-gamma1 * c3)


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
    q = {b.label: math.sqrt(b.gamma) * bond_field(state, topology, b.label) for b in topology.bonds}
    vertices = topology.vertices
    residual = 0.0
    for first, *others in vertices.values():
        for child in others:
            k = min(q[first].shape[0], q[child].shape[0])
            residual = max(residual, float(np.max(np.abs(q[child][:k] - q[first][:k]))))
    parts = [q[ROOT_LABEL]]
    label = ROOT_LABEL
    while label in vertices:
        label = vertices[label][0]
        parts.append(q[label])
    return np.concatenate(parts), residual


def _check_m_max(m_max: int) -> None:
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        raise InvalidParameterError("m_max must be an integer >= 1")


def higher_constants_recursive(
    chain_field: Sequence[complex] | np.ndarray, m_max: int
) -> list[complex]:
    """C_1 .. C_m_max of a plain chain field via the division-free ladder.

    The field must be effectively zero at both ends of the array.  The
    ladder divides by no field value, so a field with exact zeros gets
    the limit of nearby nonzero fields and no finite field raises; a field
    of fewer than two sites has all constants zero.
    """
    _check_m_max(m_max)
    q = np.ascontiguousarray(chain_field, dtype=np.complex128)
    if q.ndim != 1:
        raise InvalidParameterError("chain_field must be one-dimensional")
    qc = np.conj(q)
    hs = [-q]  # hs[m - 1] is h^(m); h^(m)_0 = 0 for m >= 2
    for m in range(2, m_max + 1):
        carried = sum(hs[m - l - 1][:-1] * hs[l - 1][1:] for l in range(1, m))
        hm = np.zeros_like(q)
        hm[1:] = hs[m - 2][:-1] - qc[1:] * carried
        hs.append(hm)
    ahead = np.zeros_like(q)
    ahead[:-1] = qc[1:]
    gs = [ahead * h for h in hs]  # gs[m - 1] is g^(m)
    fs: list[np.ndarray] = []
    for m in range(1, m_max + 1):
        fm = gs[m - 1].copy()
        for j in range(1, m):
            fm -= (j / m) * fs[j - 1] * gs[m - j - 1]
        fs.append(fm)
    return [complex(np.sum(f)) for f in fs]


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


def check_order(topology: GraphTopology, m_max: int) -> None:
    """Raise InvalidParameterError unless ``snapshot`` can audit to ``m_max``.

    Orders four and above come from the chain reduction, so they need the
    vertex sum rule.  Call this before integrating a trajectory to audit.
    """
    _check_m_max(m_max)
    if m_max >= 4 and not is_reflectionless(topology):
        raise InvalidParameterError(
            f"m_max = {m_max} needs the vertex sum rule, which this topology breaks: "
            "C4 and above come from the chain reduction; C2 and C3 (m_max <= 3) do not"
        )


def snapshot(state: FieldState, topology: GraphTopology, m_max: int = 3) -> ConservedSnapshot:
    """Evaluate the hierarchy up to C_m_max on one state.

    C2 and C3 come from the direct graph stencils; orders four and above
    come from the recursion on the universal chain field, which is
    faithful only under the coupling sum rule (``chain_residual`` carries
    the gluing residual).  On a topology that breaks the sum rule,
    ``m_max >= 4`` raises InvalidParameterError instead (``check_order``).
    """
    check_order(topology, m_max)
    z = z_quantity(state, topology)
    cs: list[complex] = []
    if m_max >= 2:
        c2, c3 = higher_constants_direct(state, topology)
        cs.append(c2)
        if m_max >= 3:
            cs.append(c3)
    q, residual = universal_chain_field(state, topology)
    if m_max >= 4:
        cs.extend(higher_constants_recursive(q, m_max)[3:])
    bond_norms = partial_norms(state, topology)
    return ConservedSnapshot(
        time=state.time,
        bond_norms=tuple(bond_norms.tolist()),
        N=_summed(bond_norms),
        Z=z,
        E=-2.0 * z.real,
        J=2.0 * z.imag,
        C=tuple(cs),
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
    ``states`` may be the iterator ``evolve`` returns.  ``m_max`` is limited as in ``snapshot``; no states at all raise
    InvalidParameterError.
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
