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
  field, built from the quotient recursion

      g_n^(0) = 1,   g_n^(1) = -q*_{n+1} q_n,
      g_n^(m) = (q*_{n+1}/q*_n) g_{n-1}^(m-1)
                - sum_{l=1}^{m-1} g_{n-1}^(m-l) g_n^(l),

  followed by the formal series logarithm
  f_m = g_m - (1/m) sum_{j<m} j f_j g_{m-j}, giving C_m = sum_n f_m^(n).
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
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, SingularRecursionError
from .state import FieldState, _check_shape, bond_field, partial_norms
from .topology import (
    CouplingCoefficients,
    GraphTopology,
    ROOT_LABEL,
    coupling_coefficients,
    is_reflectionless,
)

DRIFT_FLOOR = 1e-12
ZERO_FIELD_TOL = 1e-30


def norm(state: FieldState, topology: GraphTopology) -> float:
    """Total conserved norm: the sum of the per-bond partial norms."""
    return float(sum(partial_norms(state, topology).values()))


def z_quantity(
    state: FieldState, topology: GraphTopology, couplings: CouplingCoefficients
) -> complex:
    """Complex conserved pair sum: E = -2 Re Z, J = 2 Im Z."""
    _check_shape(state, topology)
    return complex(np.vdot(state.data, couplings.forward(state.data)))


def higher_constants_direct(
    state: FieldState, topology: GraphTopology
) -> tuple[complex, complex]:
    """Explicit (C2, C3) from their local stencils.

    The stencil spans sites n-1 .. n+2, read through the shift operator,
    so on a bond shorter than the stencil it reaches on into the next
    vertex's children with their weights.
    """
    _check_shape(state, topology)
    shift = coupling_coefficients(topology)
    g = topology.site_gamma
    c = state.data
    p1 = shift.forward(c)
    p2 = shift.forward(p1)
    m1 = shift.backward(c)
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
    residual = 0.0
    for parent, children in topology.vertices.items():
        ref = None
        for child in children:
            u = math.sqrt(topology.bond(child).gamma) * bond_field(state, topology, child)
            if ref is None:
                ref = u
            else:
                k = min(ref.shape[0], u.shape[0])
                if k:
                    residual = max(residual, float(np.max(np.abs(u[:k] - ref[:k]))))
    parts = [math.sqrt(topology.bond(ROOT_LABEL).gamma) * bond_field(state, topology, ROOT_LABEL)]
    label = ROOT_LABEL
    vertices = topology.vertices
    while label in vertices:
        label = vertices[label][0]
        parts.append(math.sqrt(topology.bond(label).gamma) * bond_field(state, topology, label))
    return np.concatenate(parts), residual


def _g_ladder(q: np.ndarray, m_max: int) -> list[np.ndarray]:
    """Per-site ladder g^(0) .. g^(m_max); g^(m)[0] = 0 for m >= 1."""
    n = q.shape[0]
    qc = np.conj(q)
    num_factor = np.zeros(n, dtype=np.complex128)
    num_factor[: n - 1] = qc[1:]
    ladder = [np.ones(n, dtype=np.complex128)]
    g1 = num_factor * q
    np.negative(g1, out=g1)
    ladder.append(g1)
    if m_max < 2:
        return ladder
    small = np.abs(qc[1:]) < ZERO_FIELD_TOL
    den = np.where(small, 1.0, qc[1:])
    for m in range(2, m_max + 1):
        prev = ladder[m - 1]
        numer = num_factor[1:] * prev[:-1]
        bad = small & (np.abs(numer) >= ZERO_FIELD_TOL)
        if np.any(bad):
            raise SingularRecursionError(int(np.argmax(bad)) + 1)
        gm = np.zeros(n, dtype=np.complex128)
        gm[1:] = np.where(small, 0.0, numer / den)
        for l in range(1, m):
            gm[1:] -= ladder[m - l][:-1] * ladder[l][1:]
        ladder.append(gm)
    return ladder


def higher_constants_recursive(
    chain_field: Sequence[complex] | np.ndarray, m_max: int
) -> list[complex]:
    """C_1 .. C_m_max of a plain chain field via the quotient recursion.

    The field must be effectively zero at both ends of the array; sites
    where the field vanishes exactly are taken in the zero-numerator
    limit, and a vanishing site with a nonvanishing carried term raises
    SingularRecursionError.
    """
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        raise InvalidParameterError("m_max must be an integer >= 1")
    q = np.ascontiguousarray(chain_field, dtype=np.complex128)
    if q.ndim != 1:
        raise InvalidParameterError("chain_field must be one-dimensional")
    if q.shape[0] < 2:
        return [0j] * m_max
    ladder = _g_ladder(q, m_max)
    fs: list[np.ndarray] = [ladder[1]]
    for m in range(2, m_max + 1):
        fm = ladder[m].copy()
        for j in range(1, m):
            fm -= (j / m) * fs[j - 1] * ladder[m - j]
        fs.append(fm)
    return [complex(np.sum(f)) for f in fs]


@dataclass(frozen=True)
class ConservedSnapshot:
    """All audited quantities at one instant; C holds (C2, ..., C_m_max)."""

    time: float
    N: float
    Z: complex
    E: float
    J: float
    C: tuple[complex, ...]


def snapshot(
    state: FieldState,
    topology: GraphTopology,
    couplings: CouplingCoefficients,
    m_max: int = 3,
) -> ConservedSnapshot:
    """Evaluate the hierarchy up to C_m_max on one state.

    C2 and C3 come from the direct graph stencils; orders four and above
    come from the recursion on the universal chain field, which is
    faithful only under the coupling sum rule (the drift report carries
    the gluing residual).  On a topology that breaks the sum rule,
    ``m_max >= 4`` raises InvalidParameterError instead.
    """
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 1:
        raise InvalidParameterError("m_max must be an integer >= 1")
    if m_max >= 4 and not is_reflectionless(topology):
        raise InvalidParameterError(
            f"m_max = {m_max} needs the vertex sum rule, which this topology breaks: "
            "C4 and above come from the chain reduction; C2 and C3 (m_max <= 3) do not"
        )
    z = z_quantity(state, topology, couplings)
    cs: list[complex] = []
    if m_max >= 2:
        c2, c3 = higher_constants_direct(state, topology)
        cs.append(c2)
        if m_max >= 3:
            cs.append(c3)
    if m_max >= 4:
        q, _ = universal_chain_field(state, topology)
        cs.extend(higher_constants_recursive(q, m_max)[3:])
    return ConservedSnapshot(
        time=state.time,
        N=norm(state, topology),
        Z=z,
        E=-2.0 * z.real,
        J=2.0 * z.imag,
        C=tuple(cs),
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
    trajectory: Sequence[FieldState],
    topology: GraphTopology,
    couplings: CouplingCoefficients,
    m_max: int = 4,
) -> DriftReport:
    """Audit conservation over a trajectory of states.

    ``m_max`` is limited as in ``snapshot``.
    """
    if len(trajectory) == 0:
        raise InvalidParameterError("trajectory must contain at least one state")
    snaps = tuple(snapshot(s, topology, couplings, m_max) for s in trajectory)
    residual = max(universal_chain_field(s, topology)[1] for s in trajectory)
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
