"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration and topology
problems exit 1, numerical divergence exits 2, and runs that cannot
produce a meaningful measurement exit 3.
"""


class InvalidParameterError(ValueError):
    """A numeric parameter or configuration value is out of range."""


class TopologyError(ValueError):
    """A bond set does not form a valid rooted tree."""


class SiteRangeError(IndexError):
    """A site index falls outside the addressable range."""


class DivergenceError(RuntimeError):
    """The integrated field stopped being finite.

    Carries the bond label, the signed site coordinate, and the time at
    which the first non-finite amplitude appeared.
    """

    def __init__(self, bond: str, site: int, time: float):
        self.bond = bond
        self.site = site
        self.time = time
        super().__init__(
            f"non-finite amplitude on bond {bond!r} at site {site} (t={time:g})"
        )


class InconclusiveRunError(RuntimeError):
    """A scattering run cannot reach its measurement configuration."""


class SingularRecursionError(ArithmeticError):
    """The conserved-quantity recursion hit a vanishing denominator.

    Raised when the field modulus underflows at a site where the
    recursion numerator does not, so no finite limit exists.
    """

    def __init__(self, site: int):
        self.site = site
        super().__init__(f"vanishing field at chain site {site} with nonzero numerator")
