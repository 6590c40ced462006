"""Scalar tower and dense kernels: permanents and determinants.

Two scalar modes exist and are never mixed inside one matrix:

* exact mode: python ints and :class:`fractions.Fraction`.  Every result is
  a canonical reduced rational, so identity checks use plain ``==`` with no
  tolerances and are independent of elimination order.
* float mode: ``float`` / ``complex``.  Kernels reject non-finite entries
  and report overflow to non-finite results.

The permanent uses Glynn's formula (Eur. J. Combin. 31 (2010) 1887) over
classes of equal columns: flipping the sign of k of a class's m copies
adds (m - 2k) times the column to the row sums in comb(m, k) ways (R. Kan,
J. Multivariate Anal. 99 (2008) 542), and single columns are walked in
Gray-code order, about prod(m + 1) / 2 products of n row sums in all.
In exact mode rows are rescaled to integers first so the inner loop runs
on machine/big ints instead of Fractions.  The exact determinant clears
denominators row by row and runs fraction-free (Bareiss) elimination on
the integer matrix; the float determinant is partially pivoted Gaussian
elimination.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, isfinite, lcm, prod

from .errors import DimensionTooLarge, NonFiniteEntry

Scalar = Fraction | int | float | complex

#: The permanent refuses above this dimension (2^19 sign vectors is already ~5e5).
RYSER_MAX_DIM = 20


def is_exact(x) -> bool:
    """True for scalars of the exact (rational) mode."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def canonical(x):
    """ints become Fractions, so exact division never falls back to floats."""
    return Fraction(x) if is_exact(x) else x


def values_agree(left, right, exact: bool) -> bool:
    """Mode-aware agreement: ``==`` in exact mode, relative error below 1e-9 in float mode."""
    if exact:
        return left == right
    scale = max(abs(left), abs(right))
    if scale == 0:
        return True
    return abs(left - right) / scale < 1e-9


def _finite(x) -> bool:
    if isinstance(x, complex):
        return isfinite(x.real) and isfinite(x.imag)
    return isfinite(x)


class SquareMatrix:
    """Immutable dense square matrix over a single scalar mode.

    Plain ints are accepted in either mode and coerced; mixing Fractions
    with floats/complex raises ``TypeError``.
    """

    __slots__ = ("entries", "dim", "exact")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with dim >= 1")
        has_fraction = any(isinstance(x, Fraction) for r in rows for x in r)
        has_float = any(isinstance(x, (float, complex)) for r in rows for x in r)
        if has_fraction and has_float:
            raise TypeError("exact and float scalars mixed in one matrix")
        if has_float:
            self.exact = False
            self.entries = tuple(tuple(complex(x) if isinstance(x, complex) else float(x)
                                       for x in r) for r in rows)
        else:
            self.exact = True
            self.entries = tuple(tuple(Fraction(x) for x in r) for r in rows)
        self.dim = n

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix)
                and self.exact == other.exact
                and self.entries == other.entries)

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"SquareMatrix(dim={self.dim}, {kind})"


def _require_finite(m: SquareMatrix):
    for r in m.entries:
        for x in r:
            if not _finite(x):
                raise NonFiniteEntry("non-finite entry in float-mode matrix")


def _int_rows_and_scale(m: SquareMatrix):
    """Rescale each row to integers; returns (int rows, product of scales)."""
    int_rows = []
    scale = 1
    for r in m.entries:
        mult = lcm(*(x.denominator for x in r))
        int_rows.append([int(x * mult) for x in r])
        scale *= mult
    return int_rows, scale


def permanent(m: SquareMatrix) -> Scalar:
    """Permanent by Glynn's formula over classes of equal columns.

    Exact mode returns the exact rational.  Raises
    :class:`DimensionTooLarge` above dim 20 and :class:`NonFiniteEntry`
    for non-finite float input or an overflowed result.
    """
    n = m.dim
    if n > RYSER_MAX_DIM:
        raise DimensionTooLarge(f"permanent of dim {n} > {RYSER_MAX_DIM} refused")
    if m.exact:
        rows, scale = _int_rows_and_scale(m)
        return Fraction(_glynn(rows), scale << (n - 1))
    _require_finite(m)
    result = _glynn(m.entries) / (1 << (n - 1))
    if not _finite(result):
        raise NonFiniteEntry("permanent overflowed to a non-finite value")
    return result


def _glynn(rows):
    """2^(n-1) perm: sum of prod(d) prod_i sum_j d_j a_ij over signs d fixing one column at +1."""
    classes = Counter(zip(*rows))
    fixed = min(classes, key=classes.get)
    classes[fixed] -= 1
    singles = [col for col, mult in classes.items() if mult == 1]
    repeated = [(col, mult) for col, mult in classes.items() if mult > 1]
    to_sign = [(tuple(2 * x for x in col), tuple(-2 * x for x in col)) for col in singles]
    base = [sum(row) for row in zip(fixed, *singles)]
    total = 0
    for counts in product(*(range(mult + 1) for _, mult in repeated)):
        row_sums = [b + sum((mult - 2 * k) * col[i] for (col, mult), k in zip(repeated, counts))
                    for i, b in enumerate(base)]
        part = prod(row_sums)
        gray = 0
        for k in range(1, 1 << len(singles)):
            j = (k & -k).bit_length() - 1
            gray ^= 1 << j
            row_sums = [a + b for a, b in zip(row_sums, to_sign[j][gray >> j & 1])]
            part += -prod(row_sums) if gray.bit_count() % 2 else prod(row_sums)
        total += prod((-1) ** k * comb(mult, k) for (_, mult), k in zip(repeated, counts)) * part
    return total


def determinant(m: SquareMatrix) -> Scalar:
    """Determinant: fraction-free elimination (exact) or partial pivoting (float)."""
    if m.exact:
        return _det_bareiss(m)
    return _det_float(m)


def _det_bareiss(m: SquareMatrix) -> Fraction:
    rows, scale = _int_rows_and_scale(m)
    n = m.dim
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * rows[n - 1][n - 1], scale)


def _det_float(m: SquareMatrix):
    _require_finite(m)
    n = m.dim
    rows = [list(r) for r in m.entries]
    det = 1.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda r: abs(rows[r][k]))
        if rows[pivot_row][k] == 0:
            return 0.0 * det
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        pivot = rows[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            for j in range(k + 1, n):
                rows[i][j] -= factor * rows[k][j]
    if not _finite(det):
        raise NonFiniteEntry("determinant overflowed to a non-finite value")
    return det
