"""Analytic one-soliton profiles and their kinematics.

On a uniform chain with nonlinearity gamma the integrable lattice
equation admits the exact traveling soliton

    psi_n(t) = gamma**-0.5 * sinh(beta) * sech(beta (n - n0 - v t))
               * exp(-i (omega t + alpha n + phi0)),

with frequency ``omega = -2 cosh(beta) cos(alpha)`` and velocity
``v = -(2 / beta) sinh(beta) sin(alpha)``.  On a graph the same expression
applies bond by bond after unrolling each bond onto the chain coordinate
``n + site_offset(bond)`` and rescaling the amplitude by that bond's
``gamma**-0.5``; when every vertex satisfies the sum rule the profile is
an exact solution of the full graph dynamics.

Because sites are integers, ``alpha`` only matters modulo ``2 pi``; values
outside ``[-pi, pi]`` are accepted verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .state import FieldState, partial_norms
from .topology import GraphTopology, site_offset


def sech(x: np.ndarray | float) -> np.ndarray | float:
    """Overflow-safe hyperbolic secant."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class SolitonParams:
    """Parameters of the one-soliton profile.

    ``alpha`` is the carrier wavenumber, ``beta > 0`` the inverse width,
    ``n0`` the center position at ``t = 0`` (usually negative: on the
    incoming bond), ``phi0`` a constant phase.
    """

    alpha: float
    beta: float
    n0: float
    phi0: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "n0", "phi0"):
            v = getattr(self, name)
            object.__setattr__(self, name, float(v))
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")
        if self.beta <= 0:
            raise InvalidParameterError("beta must be > 0")
        try:
            math.cosh(self.beta)  # sinh(beta) < cosh(beta), so both are finite
        except OverflowError:
            raise InvalidParameterError(f"sinh and cosh of beta = {self.beta:g} overflow") from None

    @property
    def omega(self) -> float:
        return derive_kinematics(self.alpha, self.beta)[0]

    @property
    def velocity(self) -> float:
        return derive_kinematics(self.alpha, self.beta)[1]


def derive_kinematics(alpha: float, beta: float) -> tuple[float, float]:
    """Frequency and velocity (omega, v) for carrier alpha and width beta."""
    if beta <= 0:
        raise InvalidParameterError("beta must be > 0")
    omega = -2.0 * math.cosh(beta) * math.cos(alpha)
    v = -(2.0 / beta) * math.sinh(beta) * math.sin(alpha)
    return omega, v


def soliton_profile(params: SolitonParams, topology: GraphTopology, t: float = 0.0) -> FieldState:
    """Exact soliton field over the whole graph at time ``t``.

    Every bond is evaluated on its unrolled chain coordinate, so on a
    sum-rule topology the result is a single coherent soliton regardless
    of which bonds its tails currently occupy.  A profile whose norm
    underflows to zero raises InvalidParameterError: it carries no norm to
    report fractions of.  So does a peak whose |psi|^2 overflows.
    """
    omega, v = derive_kinematics(params.alpha, params.beta)
    amp = math.sinh(params.beta)
    if not math.isfinite(amp * amp / min(b.gamma for b in topology.bonds)):
        raise InvalidParameterError(f"the peak |psi|^2 of beta = {params.beta:g} overflows")
    data = np.empty(topology.n_sites, dtype=np.complex128)
    for b in topology.bonds:
        coord = topology.site_coordinates(b.label) + site_offset(topology, b.label)
        x = params.beta * (coord - params.n0 - v * t)
        envelope = (amp / math.sqrt(b.gamma)) * sech(x)
        phase = np.exp(-1j * (omega * t + params.alpha * coord + params.phi0))
        data[topology.slices[b.label]] = envelope * phase
    state = FieldState(data, time=float(t))
    if not partial_norms(state, topology).any():
        raise InvalidParameterError(
            f"the soliton centred at n0 = {params.n0:g} has zero amplitude on every site: "
            "its norm underflows to 0"
        )
    return state

