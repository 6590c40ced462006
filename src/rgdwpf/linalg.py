"""Scalar tower and dense kernels: permanents and determinants.

Two scalar modes exist and are never mixed inside one matrix:

* exact mode: python ints and :class:`fractions.Fraction`.  Every result is
  a canonical reduced rational, so identity checks use plain ``==`` with no
  tolerances and are independent of elimination order.
* float mode: ``float`` / ``complex``.  Entries are checked finite once, when
  a matrix is built; kernels report overflow to non-finite results.

The permanent uses Glynn's formula (Eur. J. Combin. 31 (2010) 1887) over
classes of equal columns: flipping the sign of k of a class's m copies
adds (m - 2k) times the column to the row sums in comb(m, k) ways (R. Kan,
J. Multivariate Anal. 99 (2008) 542), and single columns are walked in
Gray-code order, about prod(m + 1) / 2 products of n row sums in all:
that work, not the dimension, is what :func:`permanent` guards.  In exact
mode rows are rescaled to integers first so the inner loop runs on
machine/big ints instead of Fractions.

The exact determinant is multimodular (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5): numpy float64 elimination modulo enough primes
below 2^26 for the Hadamard bound, small enough that every product of
residues is an exact double (Dumas, Giorgi and Pernet, ACM TOMS 35 (2008)
art. 19), then Chinese remaindering (see :func:`determinant`).  Importing
the module sieves the 7,294 primes just below 2^26 (a few milliseconds).
The float determinant is numpy's LAPACK LU with partial pivoting.
"""

import sys
from cmath import isfinite
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, isqrt, lcm, prod

import numpy as np

from .errors import CostGuard, NonFiniteEntry

Scalar = Fraction | int | float | complex

#: Largest n * prod(m + 1), m over the column classes left once one copy is fixed, that the
#: permanent admits: the work of a 20 x 20 permanent of distinct columns.
PERMANENT_MAX_TERMS = 20 << 19

#: The exact determinant eliminates modulo primes below this in float64, where the
#: update piv * a - c * d of residues stays below 2^51 (see :func:`determinant`).
_PRIME_TOP = 1 << 26
#: Primes sieved per window; the first window below 2^26 holds 7,294 primes.
_WINDOW = 1 << 17
#: Primes eliminated together as one (n, n, block) float64 array.
_BLOCK = 16
#: Limbs summed between reductions: 2^10 products below 2^42, plus a residue, stay below 2^53.
_LIMB_CHUNK = 1 << 10


def is_exact(x) -> bool:
    """True for scalars of the exact (rational) mode."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def canonical(x):
    """ints become Fractions, so exact division never falls back to floats."""
    return Fraction(x) if is_exact(x) else x


def values_agree(left, right, exact: bool) -> bool:
    """Mode-aware agreement: ``==`` in exact mode, relative error below 1e-9 in float mode.

    In float mode two sides that are both below the smallest normal float
    carry no significant digits, so they never agree.
    """
    if exact:
        return left == right
    scale = max(abs(left), abs(right))
    if scale < sys.float_info.min:
        return False
    return abs(left - right) / scale < 1e-9


class SquareMatrix:
    """Immutable dense square matrix over a single scalar mode.

    Plain ints are accepted in either mode and coerced; mixing Fractions
    with floats/complex raises ``TypeError``, and a non-finite float entry
    or an int too large for a float raises :class:`NonFiniteEntry`.
    """

    __slots__ = ("entries", "dim", "exact")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square with dim >= 1")
        kinds = {type(x) for r in rows for x in r}
        self.exact = not any(issubclass(k, (float, complex)) for k in kinds)
        if not self.exact and any(issubclass(k, Fraction) for k in kinds):
            raise TypeError("exact and float scalars mixed in one matrix")
        kept = (Fraction,) if self.exact else (float, complex)
        if not kinds.issubset(kept):  # kept entries stay the same objects
            try:
                rows = tuple(tuple(x if type(x) in kept else _coerce(x, self.exact) for x in r)
                             for r in rows)
            except OverflowError:
                raise NonFiniteEntry("entry too large for a float") from None
        if not (self.exact or np.isfinite(np.array(rows)).all()):
            raise NonFiniteEntry("non-finite entry in float-mode matrix")
        self.entries, self.dim = rows, n

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix)
                and self.exact == other.exact
                and self.entries == other.entries)

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"SquareMatrix(dim={self.dim}, {kind})"


def _coerce(x, exact):
    return Fraction(x) if exact else complex(x) if isinstance(x, complex) else float(x)


def _int_rows_and_scale(m: SquareMatrix):
    """Rescale each row to integers; returns (int rows, product of scales)."""
    int_rows = []
    scale = 1
    for r in m.entries:
        mult = lcm(*(x.denominator for x in r))
        int_rows.append([x.numerator * (mult // x.denominator) for x in r])
        scale *= mult
    return int_rows, scale


def permanent(m: SquareMatrix) -> Scalar:
    """Permanent by Glynn's formula over classes of equal columns.

    Exact mode returns the exact rational.  Raises :class:`CostGuard` above
    ``PERMANENT_MAX_TERMS`` row-sum terms and :class:`NonFiniteEntry` for
    an overflowed float result.
    """
    n = m.dim
    if m.exact:
        rows, scale = _int_rows_and_scale(m)
        return Fraction(_glynn(rows, exact=True), scale << (n - 1))
    try:
        result = _glynn(m.entries, exact=False) / (1 << (n - 1))
    except OverflowError:  # a binomial weight too large for a float
        result = float("inf")
    if not isfinite(result):
        raise NonFiniteEntry("permanent overflowed to a non-finite value")
    return result


def _glynn(rows, exact):
    """2^(n-1) perm: sum of prod(d) prod_i sum_j d_j a_ij over signs d fixing one column at +1."""
    classes = Counter(zip(*rows))
    fixed = min(classes, key=classes.get)
    classes[fixed] -= 1
    if not exact:  # a largest weight beyond the floats raises here as comb * part would
        float(prod(comb(mult, mult // 2) for mult in classes.values()))
    terms = len(rows) * prod(mult + 1 for mult in classes.values())
    if terms > PERMANENT_MAX_TERMS:
        raise CostGuard(f"permanent refused: {terms} row-sum terms > {PERMANENT_MAX_TERMS}")
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


def _odd_primes(lo: int, hi: int, factors):
    """Odd primes in [lo, hi) as a descending read-only array.

    ``lo`` is even and ``factors`` holds every odd prime up to sqrt(hi).
    """
    sieve = np.ones((hi - lo) // 2, dtype=bool)  # entry i stands for lo + 1 + 2i
    for q in map(int, factors):
        start = max(q * q, -(-(lo + 1) // q) * q)
        start += q * (start % 2 == 0)
        sieve[(start - lo - 1) // 2::q] = False
    primes = lo + 1 + 2 * np.flatnonzero(sieve)[::-1]
    primes.flags.writeable = False
    return primes


_SMALL_PRIMES = _odd_primes(2, isqrt(_PRIME_TOP) + 1, np.arange(3, isqrt(isqrt(_PRIME_TOP)) + 1, 2))
_PRIMES = _odd_primes(_PRIME_TOP - _WINDOW, _PRIME_TOP, _SMALL_PRIMES)


def _primes():
    """Primes below 2^26, descending: the import-time window, then windows sieved on demand."""
    yield from map(int, _PRIMES)
    for hi in range(_PRIME_TOP - _WINDOW, _WINDOW, -_WINDOW):
        yield from map(int, _odd_primes(hi - _WINDOW, hi, _SMALL_PRIMES))


def determinant(m: SquareMatrix) -> Scalar:
    """Determinant: multimodular elimination (exact) or numpy's LAPACK LU (float).

    Exact mode returns the exact rational.  Rows are cleared to integers;
    the Hadamard bound |det| <= prod_i |row_i| fixes how many primes below
    2^26 are needed, one per 26 bits of twice the bound; blocks of 16
    primes are eliminated together in float64 and Chinese remaindering
    gives the integer determinant.  After every step residues are brought
    back into |r| <= p/2 + 1 by r = x - p * rint(x * (1/p)), and every step
    is exact: each factor of the division-free update piv * a - c * d is at
    most p/2 + 1, so |update| <= 2 (p/2 + 1)^2 < 2^51; the computed
    quotient is within 2^-27 of x/p, so |r| <= p/2 + 1 again; q * p and the
    difference are exact integers in a double; and since |r| < p, a pivot
    that vanishes modulo p is an exact ``== 0``.  The cost is about n^3 / 3
    float64 updates per prime: the J matrix of (2S, N) = (1, 36) needs
    240-300 primes.  Float mode is numpy's LAPACK LU with partial pivoting
    on entries checked finite when the matrix was built; it returns a python
    ``float`` or ``complex`` and raises :class:`NonFiniteEntry` on overflow.
    """
    if m.exact:
        return _det_multimodular(m)
    with np.errstate(all="ignore"):
        det = np.linalg.det(np.array(m.entries)).item()
    if not isfinite(det):
        raise NonFiniteEntry("determinant overflowed to a non-finite value")
    return det


def _det_multimodular(m: SquareMatrix) -> Fraction:
    rows, scale = _int_rows_and_scale(m)
    limit = isqrt(4 * prod(sum(x * x for x in row) for row in rows))
    primes, modulus = [], 1
    for q in _primes():
        if modulus > limit:  # modulus^2 > 4 prod |row_i|^2 >= (2 det)^2
            break
        primes.append(q)
        modulus *= q
    else:
        raise CostGuard("Hadamard bound exceeds the primes below 2^26")
    limbs, signs = _limbs([x for row in rows for x in row])
    del rows  # the limbs hold the entries from here on; free the big ints
    p = np.array(primes, dtype=np.float64)
    pinv = 1 / p
    pivots, sign = np.empty((m.dim, len(p))), np.ones(len(p))
    for b in range(0, len(p), _BLOCK):
        block = slice(b, b + _BLOCK)
        _eliminate(_reduce(limbs, signs, p[block], pinv[block]).reshape(m.dim, m.dim, -1),
                   p[block], pinv[block], pivots[:, block], sign[block])
    # each step scales the determinant by piv once per row below the pivot, so with
    # P_k the product of the first k + 1 pivots, det = sign * P_{n-1} / prod_{k<n-1} P_k
    prefix, denom = np.ones(len(p)), np.ones(len(p))
    for piv in pivots:
        denom = _mod(denom * prefix, p, pinv)
        prefix = _mod(prefix * piv, p, pinv)
    dets = [int(num) * pow(int(den), -1, q) % q if num else 0
            for num, den, q in zip((sign * prefix).tolist(), denom.tolist(), primes)]
    blocks = [_crt(dets[b:b + _BLOCK], primes[b:b + _BLOCK]) for b in range(0, len(p), _BLOCK)]
    det, modulus = _crt([r for r, _ in blocks], [q for _, q in blocks])
    if 2 * det > modulus:
        det -= modulus
    return Fraction(det, scale)


def _crt(residues, moduli):
    """(x, prod(moduli)) with 0 <= x < prod(moduli) and x = r mod q for each pair; moduli coprime."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        x += m * ((r - x) * pow(m, -1, q) % q)
        m *= q
    return x, m


def _limbs(values):
    """|values| as rows of 16-bit limbs, shape (len(values), limbs), and their signs as a column."""
    width = max(abs(x).bit_length() for x in values) // 16 + 1
    buf = b"".join(abs(x).to_bytes(2 * width, "little") for x in values)
    limbs = np.frombuffer(buf, dtype="<u2").reshape(len(values), width)
    return limbs, np.array([[-1.0 if x < 0 else 1.0] for x in values])


def _mod(x, p, pinv):
    """x - p * rint(x * pinv), in place; exact for float64 integers |x| < 2^53."""
    q = x * pinv  # the one temporary
    x -= np.multiply(np.rint(q, out=q), p, out=q)
    return x


def _reduce(limbs, signs, p, pinv):
    """The values modulo each prime of ``p``: float64 (values, len(p)), |entries| <= p/2 + 1."""
    width = limbs.shape[1]
    q = p.astype(np.int64)
    powers = np.empty((width, len(p)), dtype=np.int64)  # powers[l] = 2^(16 l) mod p, in [0, p)
    powers[0] = 1
    done = 1
    while done < width:
        step = powers[done - 1] * 65536 % q
        more = min(done, width - done)
        powers[done:done + more] = powers[:more] * step % q
        done += more
    res = np.zeros((len(limbs), len(p)))
    for c in range(0, width, _LIMB_CHUNK):  # integer matmul: exact, and no BLAS call
        res += limbs[:, c:c + _LIMB_CHUNK] @ powers[c:c + _LIMB_CHUNK]
        _mod(res, p, pinv)
    res *= signs
    return res


def _eliminate(a, p, pinv, pivots, sign):
    """Division-free elimination of each a[:, :, b] (n, n, B) modulo p[b], overwriting ``a``.

    Writes the pivots to pivots[:, b] and flips sign[b] per row swap.  Each
    step builds the trailing block as a new contiguous array; a pivot row is
    searched for only when some pivot vanishes.
    """
    for k in range(len(a)):
        if np.count_nonzero(a[0, 0]) < len(p):
            r = np.argmax(a[:, 0] != 0, axis=0)  # row 0 when the column is zero mod p
            b = np.flatnonzero(r)
            a[0, :, b], a[r[b], :, b] = a[r[b], :, b], a[0, :, b]
            sign[b] = -sign[b]
        pivots[k] = a[0, 0]  # a copy, so no view keeps an old block alive
        rest = a[1:, 1:] * pivots[k]  # row_i <- piv * row_i - a_i0 * row_0
        rest -= a[1:, :1] * a[:1, 1:]
        a = _mod(rest, p, pinv)

