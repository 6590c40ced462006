"""Log-derivative hierarchy of the rapidity polynomial and the determinant's input.

With rapidities v_1..v_O and Q(z) = prod_i (z - v_i), define

    G_n(z) = -Q^(n)(z) / Q(z),        G_0 = -1,  G_1(z) = -L(z),

where L(z) = sum_i 1/(z - v_i).  Taylor's theorem gives
Q(z + t) / Q(z) = sum_n Q^(n)(z) t^n / (n! Q(z)), and the product form gives
Q(z + t) / Q(z) = prod_i (1 + y_i t) with y_i = 1/(z - v_i).  Comparing the
coefficients of t^n,

    G_n(z) = -n! e_n(y),

with e_n the n-th elementary symmetric polynomial (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2).  So G_n vanishes exactly for
n > Omega, and e_0..e_n is the product truncated at t^min(n, Omega):
O(Omega min(n, Omega)) operations.

Evaluation is exact: a float input is read as its dyadic value
(``linalg.dyadic``).  Writing z - v_i = g_i / h_i with integers
g_i = a d_i - c_i b and h_i = b d_i (z = a/b, v_i = c_i/d_i), each factor
is 1 + y_i t = (g_i + h_i t) / g_i, so with P(t) = prod_i (g_i + h_i t)

    e_n = P_n / P_0,

one normalisation per order.  The coefficients of P stay about as long as
P_0 at every order; over one common denominator D of the y_i, e_n would
carry D^n instead.

The determinant reads the eigenvalue-based variables, not the G_n:
e_0..e_2S at the first inhomogeneity (e_1 = L(eps_1)) and L alone at
each other one, one integer sum over a common denominator
(``linalg._inverse_gap_sum``).  ``hierarchy`` multiplies in the -n! for
``rg gamma``.  The Leibniz recursion on the derivative tower of L and the
explicit partition sum are the test oracles (``tests/oracles.py``).

All of these are symmetric under any permutation of the rapidities.
"""

from fractions import Fraction
from math import factorial

from .errors import CardinalityMismatch, PoleAtEvaluationPoint
from .linalg import _inverse_gap_sum, dyadic


def _elementary(nu, z, n_max: int) -> tuple:
    """(e_0, ..., e_{n_max}) of y_i = 1/(z - v_i), exact: e_n = P_n / P_0."""
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
    return tuple(Fraction(c, p[0]) for c in p) + (Fraction(0),) * (n_max - top)


def hierarchy(nu, z, n_max: int) -> tuple:
    """(G_0, ..., G_{n_max}) at z, exact: G_0 = -1 and G_n = -n! e_n(y).

    Orders beyond Omega = len(nu) are exact zeros.  Raises
    :class:`PoleAtEvaluationPoint` if z coincides with a rapidity.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    es = _elementary(nu, z, n_max)
    return (-1,) + tuple(-factorial(k) * e for k, e in enumerate(es[1:], start=1))


def _check_no_poles(nu, eps):
    """Raise :class:`PoleAtEvaluationPoint` if a rapidity equals an inhomogeneity."""
    eps = set(eps)
    for v in nu:
        if v in eps:
            raise PoleAtEvaluationPoint(f"rapidity {v} equals an inhomogeneity")


def build_gamma_table(system, nu) -> tuple:
    """The determinant's input from the rapidities: ``(tower, lambdas)``.

    ``tower`` = (e_0, ..., e_2S), the elementary symmetric polynomials of
    y_i = 1/(eps_1 - nu_i), so e_0 = 1 and e_1 = L(eps_1), G_k = -k! e_k;
    ``lambdas`` = (L(eps_2), ..., L(eps_N)).  Both are invariant under
    permutations of ``nu``.
    """
    nu = tuple(map(dyadic, nu))
    if len(nu) != system.omega:
        raise CardinalityMismatch(
            f"need {system.omega} rapidities for this system, got {len(nu)}")
    eps = tuple(map(dyadic, system.epsilons))
    _check_no_poles(nu, eps)
    return (_elementary(nu, eps[0], system.two_s),
            tuple(_inverse_gap_sum(e, nu) for e in eps[1:]))
