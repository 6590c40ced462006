"""Log-derivative hierarchy of the rapidity polynomial.

With rapidities v_1..v_O and Q(z) = prod_i (z - v_i), define

    G_n(z) = -Q^(n)(z) / Q(z),        G_0 = -1,  G_1(z) = -L(z),

where L(z) = sum_i 1/(z - v_i).  Since Q' = L Q, Leibniz's rule gives

    G_n = sum_{j<n} C(n-1, j) L^(j) G_{n-1-j},

so each G_n is evaluated from the derivative tower
L(z), L'(z), ..., L^(n-1)(z) alone, never from the rapidities.  The
explicit partition sum over exponent vectors and the polynomial quotient
-Q^(n)/Q are independent test oracles (``tests/oracles.py``).

The tower is L^(a)(z) = (-1)^a a! sum_i (z - v_i)^-(a+1), exact: a float
input is read as its dyadic value (``linalg.dyadic``).  All a + 1 power
sums come from one common denominator: with 1/(z - v_i) = w_i / D, D the
lcm of the gaps' numerators, the a-th sum is sum_i w_i^(a+1) / D^(a+1),
so each costs one normalisation instead of one normalising ``Fraction``
operation per rapidity (``linalg._inverse_power_sums``).  The same sums
give G_1 at the other inhomogeneities.

These are the variables the partition-function determinant is written in,
and they are symmetric under any permutation of the rapidities.
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import CardinalityMismatch, InsufficientDerivatives, PoleAtEvaluationPoint
from .linalg import _inverse_power_sums, dyadic


@dataclass(frozen=True)
class LambdaDerivTable:
    """Values [L(z), L'(z), ..., L^(order)(z)] at a fixed point z."""

    values: tuple

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class GammaTable:
    """G_0..G_{2S} at the first inhomogeneity plus G_1 at every other one.

    ``gamma1_at_others`` is keyed by the 1-based spin index j = 2..N.
    Higher orders at j >= 2 are never needed by the determinant and are
    not stored.
    """

    system: object
    gammas_at_eps1: tuple
    gamma1_at_others: dict


def lambda_derivatives(nu, z, n_max: int) -> LambdaDerivTable:
    """Closed-form derivative tower L^(a)(z) = (-1)^a a! sum_i (z - v_i)^-(a+1), exact.

    Raises :class:`PoleAtEvaluationPoint` if z coincides with a rapidity.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nu, z = tuple(map(dyadic, nu)), dyadic(z)
    for v in nu:
        if z == v:
            raise PoleAtEvaluationPoint(f"evaluation point {z} equals a rapidity")
    sums = _inverse_power_sums(z, nu, n_max)
    return LambdaDerivTable(values=tuple((-1) ** a * factorial(a) * s
                                         for a, s in enumerate(sums)))


def gamma_recursive(lam: LambdaDerivTable, n_max: int):
    """[G_0, ..., G_{n_max}] by the Leibniz recursion on the tower.

    Requires ``lam.order >= n_max - 1`` since G_n involves derivatives of L
    up to order n - 1 only.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if lam.order < n_max - 1:
        raise InsufficientDerivatives(
            f"order-{lam.order} table cannot evaluate G_{n_max}")
    gammas = [-1]
    for n in range(1, n_max + 1):
        gammas.append(sum(comb(n - 1, j) * lam.values[j] * gammas[n - 1 - j]
                          for j in range(n)))
    return tuple(gammas)


def _check_no_poles(nu, eps):
    """Raise :class:`PoleAtEvaluationPoint` if a rapidity equals an inhomogeneity."""
    eps = set(eps)
    for v in nu:
        if v in eps:
            raise PoleAtEvaluationPoint(f"rapidity {v} equals an inhomogeneity")


def build_gamma_table(system, nu) -> GammaTable:
    """Evaluate the hierarchy at every inhomogeneity of a spin system.

    Fills G_0..G_{2S} at the first inhomogeneity and G_1 at each of the
    others, which is exactly what the determinant consumes.  The result is
    invariant under permutations of ``nu``.
    """
    nu = tuple(map(dyadic, nu))
    if len(nu) != system.omega:
        raise CardinalityMismatch(
            f"need {system.omega} rapidities for this system, got {len(nu)}")
    eps = tuple(map(dyadic, system.epsilons))
    _check_no_poles(nu, eps)
    two_s = system.two_s
    lam1 = lambda_derivatives(nu, eps[0], max(two_s - 1, 0))
    gammas = gamma_recursive(lam1, two_s)
    gamma1 = {j: -_inverse_power_sums(eps[j - 1], nu)[0] for j in range(2, system.n + 1)}
    return GammaTable(system=system, gammas_at_eps1=gammas, gamma1_at_others=gamma1)
