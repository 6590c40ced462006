"""Correctness oracles that share no code with the layers they check.

Exact values are checked modulo large primes: a rational a/b is mapped to
a * b^-1 mod p, so the check costs a few milliseconds where recomputing
the exact value would cost as much as the op.  Agreement modulo two
primes above 2^60 leaves a false pass probability below 2^-120 for the
integers that occur here.  Every matrix is built here from its defining
formula, straight from the inhomogeneities and rapidities.
"""

from fractions import Fraction
from math import comb

import numpy as np

#: Mersenne primes; far above every denominator a benchmark instance produces.
PRIMES = (2 ** 61 - 1, 2 ** 89 - 1)


def residue(x, p: int) -> int:
    """The rational x as an element of GF(p)."""
    x = Fraction(x)
    den = x.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"{p} divides the denominator of {x}")
    return x.numerator * pow(den, -1, p) % p


def inverse(x, p: int) -> int:
    """1/x in GF(p) for a rational x."""
    x = Fraction(x)
    return residue(Fraction(x.denominator, x.numerator), p)


def det_mod(rows, p: int) -> int:
    """Determinant of a rational matrix modulo p, by elimination over GF(p)."""
    a = [[residue(x, p) for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        row_k = a[k]
        det = det * row_k[k] % p
        inv = pow(row_k[k], -1, p)
        for r in range(k + 1, n):
            row_r = a[r]
            f = row_r[k] * inv % p
            if f:
                for c in range(k + 1, n):
                    row_r[c] = (row_r[c] - f * row_k[c]) % p
    return det % p


def j_spin_half_mod(eps, nu, p: int):
    """The spin-1/2 determinant matrix J over GF(p).

    J_ii = sum_{k != i} 1/(eps_i - eps_k) - sum_v 1/(eps_i - v) and
    J_ij = 1/(eps_j - eps_i); det J equals the partition function.
    """
    n = len(eps)
    rows = []
    for i, ei in enumerate(eps):
        row = [inverse(eps[j] - ei, p) if j != i else 0 for j in range(n)]
        row[i] = (sum(inverse(ei - ek, p) for k, ek in enumerate(eps) if k != i)
                  - sum(inverse(ei - v, p) for v in nu)) % p
        rows.append(row)
    return rows


def z_permanent_mod(two_s: int, eps, nu, p: int) -> int:
    """The partition function as one Omega x Omega permanent over GF(p).

    Column 1/(v - eps_1) repeats two_s times and each other inhomogeneity
    gives one column 1/(v - eps_k).  Ryser's formula over column classes
    picks k0 of the repeated copies in binom(two_s, k0) ways, so the sum
    runs over (two_s + 1) * 2^(N-1) terms instead of 2^Omega.
    """
    omega = len(nu)
    if omega != two_s + len(eps) - 1:
        raise ValueError(f"need {two_s + len(eps) - 1} rapidities, got {omega}")
    first = [inverse(v - eps[0], p) for v in nu]
    cols = [[inverse(v - e, p) for v in nu] for e in eps[1:]]
    total = 0
    for mask in range(1 << len(cols)):
        chosen = [c for b, c in enumerate(cols) if mask >> b & 1]
        base = [sum(c[i] for c in chosen) for i in range(omega)]
        for k0 in range(two_s + 1):
            prod = comb(two_s, k0)
            for i in range(omega):
                prod = prod * (base[i] + k0 * first[i]) % p
            if (k0 + len(chosen)) % 2:
                total -= prod
            else:
                total += prod
    return (-total if omega % 2 else total) % p


def quad_residual_max(lambdas, eps, g: float) -> float:
    """Largest |L_i^2 - sum_{j != i} (L_i - L_j)/(eps_i - eps_j) - (2/g) L_i|."""
    lam = np.asarray(lambdas, dtype=float)
    e = np.asarray(eps, dtype=float)
    gaps = e[:, None] - e[None, :]
    np.fill_diagonal(gaps, np.inf)
    cross = ((lam[:, None] - lam[None, :]) / gaps).sum(axis=1)
    return float(np.max(np.abs(lam ** 2 - cross - (2.0 / g) * lam)))
