"""Exception hierarchy shared by all modules."""


class RGError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteEntry(RGError):
    """A float-mode value is NaN/Inf on entry, or a kernel overflowed to one."""


class ComplexInput(RGError):
    """A complex value reached a real-only computation (all but the permanent route)."""


class PoleAtEvaluationPoint(RGError):
    """A rapidity coincides with an inhomogeneity, so the expression has a pole."""


class CardinalityMismatch(RGError):
    """Sequence lengths are inconsistent with the spin content of the system."""


class DegenerateEpsilons(RGError):
    """Two inhomogeneities coincide; all constructions here require them distinct."""


class CostGuard(RGError):
    """Refused: a permanent's terms or an exact determinant's primes exceed their guard."""


class NoConvergence(RGError):
    """Newton/homotopy continuation failed to reach the target coupling.

    ``g_reached`` is the coupling reached before giving up, ``residual``
    the max |residual| of the last Newton solve and ``halvings`` the
    number of continuation step halvings spent.
    """

    def __init__(self, message: str, g_reached: float | None = None,
                 residual: float | None = None, halvings: int = 0):
        super().__init__(message)
        self.g_reached = g_reached
        self.residual = residual
        self.halvings = halvings
