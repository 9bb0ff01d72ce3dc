import math

import numpy as np
import pytest

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


def glued_state(topology, chain_values):
    """Distribute a chain field over a graph so every vertex is glued.

    Site ``m`` of ``chain_values`` lands on every bond whose unrolled
    coordinate range covers ``m``, scaled by ``1 / sqrt(gamma_bond)``;
    sibling bonds therefore agree after rescaling, which is the regime
    where the chain reduction is exact.
    """
    from alnet import bond_field, site_offset, zero_state

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
