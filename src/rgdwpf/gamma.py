"""Log-derivative hierarchy of the rapidity polynomial.

With rapidities v_1..v_O and Q(z) = prod_i (z - v_i), define

    G_n(z) = -Q^(n)(z) / Q(z),        G_0 = -1,  G_1(z) = -L(z),

where L(z) = sum_i 1/(z - v_i).  Taylor's theorem gives
Q(z + t) / Q(z) = sum_n Q^(n)(z) t^n / (n! Q(z)), and the product form gives
Q(z + t) / Q(z) = prod_i (1 + y_i t) with y_i = 1/(z - v_i).  Comparing the
coefficients of t^n,

    G_n(z) = -n! e_n(y),

with e_n the n-th elementary symmetric polynomial (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2).  So G_n vanishes exactly for
n > Omega, and the hierarchy up to order n is the product truncated at
t^min(n, Omega): O(Omega min(n, Omega)) operations, no factorials until
the final -n!.

Evaluation is exact: a float input is read as its dyadic value
(``linalg.dyadic``).  Writing z - v_i = g_i / h_i with integers
g_i = a d_i - c_i b and h_i = b d_i (z = a/b, v_i = c_i/d_i), each factor
is 1 + y_i t = (g_i + h_i t) / g_i, so with P(t) = prod_i (g_i + h_i t)

    G_n = -n! P_n / P_0,

one normalisation per order.  The coefficients of P stay about as long as
P_0 at every order; over one common denominator D of the y_i, e_n would
carry D^n instead.  At the other inhomogeneities the determinant needs
G_1 = -L alone, one integer sum over that common denominator
(``linalg._inverse_gap_sum``).  The Leibniz recursion on the derivative
tower of L and the explicit partition sum are the test oracles
(``tests/oracles.py``).

These are the variables the partition-function determinant is written in,
and they are symmetric under any permutation of the rapidities.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CardinalityMismatch, PoleAtEvaluationPoint
from .linalg import _inverse_gap_sum, dyadic


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


def hierarchy(nu, z, n_max: int) -> tuple:
    """(G_0, ..., G_{n_max}) at z, exact: G_0 = -1 and G_n = -n! P_n / P_0.

    Orders beyond Omega = len(nu) are exact zeros.  Raises
    :class:`PoleAtEvaluationPoint` if z coincides with a rapidity.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    nu, z = tuple(map(dyadic, nu)), dyadic(z)
    if z in nu:
        raise PoleAtEvaluationPoint(f"evaluation point {z} equals a rapidity")
    a, b = z.as_integer_ratio()
    top = min(n_max, len(nu))
    p = [1] + [0] * top  # P(t) = prod_i (g_i + h_i t), truncated at t^top
    for i, (c, d) in enumerate(map(Fraction.as_integer_ratio, nu)):
        g, h = a * d - c * b, b * d  # z - v_i = g / h
        for k in range(min(i + 1, top), 0, -1):
            p[k] = p[k] * g + p[k - 1] * h
        p[0] *= g
    gammas, fact = [-1], 1
    for k in range(1, top + 1):
        fact *= k
        gammas.append(Fraction(-fact * p[k], p[0]))
    return tuple(gammas) + (Fraction(0),) * (n_max - top)


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
    gammas = hierarchy(nu, eps[0], system.two_s)
    gamma1 = {j: -_inverse_gap_sum(eps[j - 1], nu) for j in range(2, system.n + 1)}
    return GammaTable(system=system, gammas_at_eps1=gammas, gamma1_at_others=gamma1)
