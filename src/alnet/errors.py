"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and topology
problems exit 1, numerical divergence (``DivergenceError``, the only
numerical failure, also raised when a field is too large for its
conserved constants to be finite) exits 2, and runs that cannot produce a meaningful
measurement exit 3.
"""


class InvalidParameterError(ValueError):
    """A numeric parameter or configuration value is out of range."""


class TopologyError(ValueError):
    """A bond set does not form a valid rooted tree."""


class SiteRangeError(IndexError):
    """A site index falls outside the addressable range."""


class DivergenceError(RuntimeError):
    """The integrated field stopped being finite, or grew past what can be audited.

    Carries the bond label, the signed site coordinate, and the time at
    which the first non-finite amplitude appeared; ``what`` names the
    failure in the message.
    """

    def __init__(self, bond: str, site: int, time: float, what: str = "non-finite amplitude"):
        self.bond = bond
        self.site = site
        self.time = time
        super().__init__(f"{what} on bond {bond!r} at site {site} (t={time:g})")


class InconclusiveRunError(RuntimeError):
    """A scattering run cannot reach its measurement configuration."""
