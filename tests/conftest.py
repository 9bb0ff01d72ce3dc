import math
import os

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

ALPHA_FIG4 = 5 * math.pi / 4


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def decaying_random_field(rng, n=64, decay=0.9):
    """Nonvanishing random chain field with geometric tails.

    The sech envelope keeps boundary values around 1e-13 so truncated
    sums behave like their infinite counterparts, while the uniform
    factor in [0.5, 1.5] guarantees no site vanishes.
    """
    x = np.arange(n, dtype=float) - (n - 1) / 2.0
    envelope = 0.4 / np.cosh(decay * x)
    amp = envelope * (0.5 + rng.random(n))
    phase = np.exp(2j * np.pi * rng.random(n))
    return amp * phase


def zero_state(topology, time=0.0):
    """The all-zero field on ``topology`` at ``time``."""
    from alnet import FieldState

    return FieldState(np.zeros(topology.n_sites, dtype=np.complex128), time)


def norm(state, topology):
    """Total conserved norm N, the sum of the per-bond partial norms as ``snapshot`` takes it."""
    from alnet import partial_norms

    return float(sum(partial_norms(state, topology)))


def rhs(state, topology):
    """``i (R + R^T) psi (1 + gamma |psi|^2)``, the time derivative of one state, from the step's kernel."""
    from alnet.dynamics import _derivative

    y = state.data
    return _derivative(y, topology.couplings, np.empty_like(y), np.empty(y.shape))


def analytic_norm(params, gamma1):
    """Closed-form conserved norm ``2 beta / gamma1`` of the soliton."""
    return 2.0 * params.beta / gamma1


def analytic_Z(params, gamma1):
    """Closed-form (Z, E, J) of the soliton under the coupling sum rule.

    ``Z = (2 / gamma1) e^{-i alpha} sinh(beta)``, with ``E = -2 Re Z`` and
    ``J = 2 Im Z``; J is positive for motion toward and past the vertex,
    as in ``z_quantity``.
    """
    z = complex((2.0 / gamma1) * math.sinh(params.beta) * np.exp(-1j * params.alpha))
    return z, -2.0 * z.real, 2.0 * z.imag


def higher_constants_recursive(chain_field, m_max):
    """C_1 .. C_m_max of a plain chain field: the ladder on the graph of one bond.

    The term ahead is ``a_n = q*_{n+1}`` (0 past the last site), no site
    reads across a vertex and every weight is 1.  A constant that
    overflows raises OverflowError.
    """
    from alnet.conserved import _ladder

    q = np.ascontiguousarray(chain_field, dtype=np.complex128)
    ahead = np.zeros_like(q)
    ahead[:-1] = np.conj(q[1:])
    return _ladder(q, ahead, m_max, np.zeros((2, 0), dtype=np.intp), np.ones(q.shape))


def lax_log_a(q, radius, points=128):
    """log a(z) of a chain field at ``points`` points z = radius e^(2 pi i k / points), k = 0, 1, ...

    The lattice's Lax matrix is L_n(z) = [[z, q_n], [-conj(q_n), 1/z]].
    The normalised Jost solution steps as a Riccati ratio w, 0 before the
    first site: a_n = 1 + q_n w / z, then w <- (-conj(q_n) / z + w / z^2) / a_n,
    and log a(z) = sum_n log a_n.  Under the flow of the chain, log a is
    one constant of motion for every z outside the zeros of a(z).
    """
    z = radius * np.exp(2j * np.pi * np.arange(points) / points)
    w = np.zeros(points, dtype=np.complex128)
    log_a = np.zeros(points, dtype=np.complex128)
    for qn in np.asarray(q, dtype=np.complex128):
        a = 1.0 + qn * w / z
        log_a += np.log(a)
        w = (-np.conj(qn) / z + w / z**2) / a
    return log_a


def lax_tower(q, m_max, radius, points=128):
    """C_1 .. C_m_max of a chain field from its Lax spectrum, in code that shares nothing with the ladder.

    ``lax_log_a`` samples log a(z) at ``points`` points on |z| = ``radius``;
    inverted by ``np.fft.ifft``, the k-th entry times radius^k is the
    z^(-k) coefficient of log a; the ladder's C_m (weight 1, ahead
    conj(q_{n+1})) is the conjugate of the z^(-2m) one.  ``radius``
    must lie well outside every zero of a(z) (a soliton of width beta sits
    at |z| = e^(beta / 2)).  Also returns, per m, radius^(2m) max |log a|:
    the scaling amplifies the rounding of log a by that much.
    """
    log_a = lax_log_a(q, radius, points)
    coefficients = np.fft.ifft(log_a) * radius ** np.arange(points)
    orders = range(1, m_max + 1)
    scale = float(np.abs(log_a).max())
    return [complex(np.conj(coefficients[2 * m])) for m in orders], [radius ** (2 * m) * scale for m in orders]


def assert_matches_the_lax_tower(constants, q, radius, first=1):
    """``constants`` (C_first, C_first+1, ...) equal ``lax_tower``'s within rounding.

    The bound is 1e-12 relative plus 1e-14 of the order's amplified scale;
    on perturbed soliton chains the largest gap seen was 2.4e-16 of that
    scale, at m = 12.
    """
    tower, rounding = lax_tower(q, first + len(constants) - 1, radius)
    for c, want, r in zip(constants, tower[first - 1 :], rounding[first - 1 :], strict=True):
        assert abs(c - want) <= 1e-12 * abs(want) + 1e-14 * r


def soliton_chain(rng, n, beta, noise=0.05):
    """A soliton of width ``beta`` on ``n`` chain sites, plus ``noise`` of uniform perturbation.

    Its peak sits at a random site of the middle two fifths and its phase
    advances by a random angle per site.
    """
    x = np.arange(n) - rng.uniform(0.3 * n, 0.7 * n)
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    field = math.sinh(beta) / np.cosh(beta * x) * np.exp(1j * alpha * x)
    return field + noise * ((rng.random(n) - 0.5) + 1j * (rng.random(n) - 0.5))


@pytest.fixture
def worker_forks(monkeypatch):
    """Two usable CPUs whatever the machine, so that an audit forks its worker; lists the forked pids."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def peak_tracker(states, topology, bond):
    """The modulus peak of one bond over ``states``, read once in order: one ``_PeakTrack`` fold."""
    from alnet.experiments import _PeakTrack

    track = _PeakTrack(topology, bond)
    for state in states:
        track.add(state)
    return track.series()


def audit(states, topology, m_max):
    """``drift_audit`` of the ``snapshot`` of each state, taken in order."""
    from alnet import drift_audit, snapshot

    return drift_audit(snapshot(s, topology, m_max) for s in states)


def glued_state(topology, chain_values):
    """Distribute a chain field over a graph so every vertex is glued.

    Site ``m`` of ``chain_values`` lands on every bond whose unrolled
    coordinate range covers ``m``, scaled by ``1 / sqrt(gamma_bond)``;
    sibling bonds therefore agree after rescaling, which is the regime
    where the chain reduction is exact.
    """
    from alnet import bond_field, site_offset

    u = np.asarray(chain_values, dtype=np.complex128)
    root_len = topology.bond("1").length
    st = zero_state(topology)
    for label in topology.labels:
        coords = topology.site_coordinates(label) + site_offset(topology, label)
        idx = coords + (root_len - 1)
        g = topology.bond(label).gamma
        bond_field(st, topology, label)[:] = u[idx] / np.sqrt(g)
    return st


def tree_spec(length=30):
    # two internal bonds of ``length`` sites, four leaves; sum rule holds at every vertex
    return {
        "gamma": 1.0,
        "children": [
            {"gamma": 3.0, "length": length, "children": [{"gamma": 6.0}, {"gamma": 6.0}]},
            {"gamma": 1.5, "length": length, "children": [{"gamma": 3.0}, {"gamma": 3.0}]},
        ],
    }


class ReferenceShift:
    """R, R^T and the site gammas of one topology or a same-layout stack.

    An independent reference for ``CouplingCoefficients``: index arrays
    built straight from ``vertices`` and ``slices``, and weights
    ``sqrt(gamma_parent / gamma_child)`` computed from the bonds.  A stack
    of B topologies of n sites is block-diagonal: run b holds sites
    ``[b n, (b + 1) n)`` and its own weights and gammas.  Each map is a
    whole-array shift; ``forward`` then zeroes every bond's last site and
    writes each parent's last site as the ``np.add.reduceat`` of its
    children's weight-first products, and ``backward`` zeroes each run's
    first site, the root's far end, and writes each child's first site.
    """

    def __init__(self, topologies):
        top, n = topologies[0], topologies[0].n_sites
        parent_ends, groups, child_starts, child_parents, weights = [], [], [], [], []
        for b, t in enumerate(topologies):
            for parent, kids in top.vertices.items():
                p_last = b * n + top.slices[parent].stop - 1
                parent_ends.append(p_last)
                groups.append(len(child_starts))
                for child in kids:
                    child_starts.append(b * n + top.slices[child].start)
                    child_parents.append(p_last)
                    weights.append(math.sqrt(t.bond(parent).gamma / t.bond(child).gamma))
        self.run_starts = n * np.arange(len(topologies))
        self.bond_ends = np.array([b + s.stop - 1 for b in self.run_starts for s in top.slices.values()])
        self.parent_ends = np.array(parent_ends)
        self.groups = np.array(groups)
        self.child_starts = np.array(child_starts)
        self.child_parents = np.array(child_parents)
        self.weights = np.array(weights)
        self.site_gamma = np.concatenate([np.full(b.length, b.gamma) for t in topologies for b in t.bonds])

    def forward(self, y):
        out = np.empty_like(y)
        out[:-1] = y[1:]
        out[self.bond_ends] = 0.0
        out[self.parent_ends] = np.add.reduceat(self.weights * y[self.child_starts], self.groups)
        return out

    def backward(self, y):
        out = np.empty_like(y)
        out[1:] = y[:-1]
        out[self.run_starts] = 0.0
        out[self.child_starts] = self.weights * y[self.child_parents]
        return out


def stencil_constants(state, topology):
    """(C2, C3) from their hand-derived local stencils: the oracle for the ladder.

    The stencils span sites n-1 .. n+2, read through ``ReferenceShift`` as
    ``R psi``, ``R R psi`` and ``R^T psi``, so on a bond shorter than the
    stencil they reach on into the next vertex's children with their
    weights.  C2 is the ladder's for any field and any gammas.  C3 is the
    ladder's on glued fields under the sum rule; elsewhere the two are
    different extensions off the rule.
    """
    from alnet import ROOT_LABEL

    shift = ReferenceShift([topology])
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


def with_sum_rule(topology):
    """The same tree with every branching bond's gamma solved from the sum rule.

    Leaves keep their gammas; working up from the leaves, each parent
    gets ``1 / sum_children 1 / gamma_child``.
    """
    from dataclasses import replace

    gammas = {b.label: b.gamma for b in topology.bonds}
    for parent in sorted(topology.vertices, key=len, reverse=True):
        gammas[parent] = 1.0 / sum(1.0 / gammas[c] for c in topology.vertices[parent])
    bonds = tuple(replace(b, gamma=gammas[b.label]) for b in topology.bonds)
    return replace(topology, bonds=bonds)


def chain_gaps(topology, launch, config):
    """The chain oracle of a star: per observation, how far the graph run is from the chain.

    Integrates ``launch`` on ``topology`` and, as the reference, the unrolled
    gamma = 1 chain ``build_chain(1.0, truncation)`` started from the launch's
    ``universal_chain_field`` q.  Returns two lists with one entry per
    observation: max|q - chain| / max|chain|, and the largest relative spread
    of gamma_c N_c over the leaves.  Under the sum rule both vanish to rounding.
    """
    from alnet import (
        FieldState,
        build_chain,
        coupling_coefficients,
        evolve,
        partial_norms,
        universal_chain_field,
    )

    chain = build_chain(1.0, topology.truncation)
    q0, _ = universal_chain_field(launch, topology)
    reference = evolve(FieldState(q0), coupling_coefficients(chain), config)
    run = evolve(launch, coupling_coefficients(topology), config)
    leaf_gamma = np.array([topology.bond(leaf).gamma for leaf in topology.leaves])
    leaf_rows = [topology.labels.index(leaf) for leaf in topology.leaves]
    q_gaps, sibling_gaps = [], []
    for state, expected in zip(run, reference):
        assert state.time == expected.time
        q, _ = universal_chain_field(state, topology)
        q_gaps.append(np.abs(q - expected.data).max() / np.abs(expected.data).max())
        scaled = leaf_gamma * partial_norms(state, topology)[leaf_rows]
        sibling_gaps.append(np.ptp(scaled) / scaled.max())
    return q_gaps, sibling_gaps


def bits(a):
    """The words of a float or complex array, so that signs of zero count."""
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def tree_stacks(draw, max_columns=3):
    """1 to ``max_columns`` trees of one random shape, each with its own random gammas.

    Depth at most 3 below the incoming bond, at most 4 children per
    vertex, internal bonds of 1-4 sites.  The gammas ignore the sum rule,
    which the shift maps do not need.
    """
    from alnet import build_tree

    columns = draw(st.integers(1, max_columns))

    def node(depth):
        kids = draw(st.integers(1 if depth == 0 else 0, 4 if depth < 3 else 0))
        return {
            "gammas": [draw(st.floats(0.25, 8.0)) for _ in range(columns)],
            "length": draw(st.integers(1, 4)),
            "children": [node(depth + 1) for _ in range(kids)],
        }

    def spec(n, b):
        return {
            "gamma": n["gammas"][b],
            "length": n["length"],
            "children": [spec(c, b) for c in n["children"]],
        }

    shape, truncation = node(0), draw(st.integers(2, 5))
    return [build_tree(spec(shape, b), truncation) for b in range(columns)]


# no shrink phase: a failure is reported as drawn, in seconds instead of the
# minute or more that shrinking takes
PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate),
)
