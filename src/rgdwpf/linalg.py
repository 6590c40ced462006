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
Gray-code order, about prod(m + 1) / 2 products of n row sums in all:
that work, not the dimension, is what :func:`permanent` guards.  In exact
mode rows are rescaled to integers first so the inner loop runs on
machine/big ints instead of Fractions.

The exact determinant is multimodular (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5): numpy int64 elimination modulo enough primes
below 2^31 for the Hadamard bound, then Chinese remaindering (see
:func:`determinant`).  Importing the module therefore loads numpy and
sieves the 6,121 primes just below 2^31 (a few milliseconds).  The float
determinant is partially pivoted Gaussian elimination.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, isfinite, isqrt, lcm, prod

import numpy as np

from .errors import CostGuard, NonFiniteEntry

Scalar = Fraction | int | float | complex

#: Largest n * prod(m + 1), m over the column classes left once one copy is fixed, that the
#: permanent admits: the work of a 20 x 20 permanent of distinct columns.
PERMANENT_MAX_TERMS = 20 << 19

#: The exact determinant eliminates modulo primes below this, so that the
#: division-free update piv * a - c * d of residues stays below 2^62.
_PRIME_TOP = 1 << 31
#: Primes sieved per window; the first window below 2^31 holds 6,121 primes.
_WINDOW = 1 << 17
#: Primes eliminated together as one (block, n, n) int64 array.
_BLOCK = 16
#: Limbs summed between reductions: 2^15 products below 2^47 stay below 2^63.
_LIMB_CHUNK = 1 << 15


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
        int_rows.append([x.numerator * (mult // x.denominator) for x in r])
        scale *= mult
    return int_rows, scale


def permanent(m: SquareMatrix) -> Scalar:
    """Permanent by Glynn's formula over classes of equal columns.

    Exact mode returns the exact rational.  Raises :class:`CostGuard` above
    ``PERMANENT_MAX_TERMS`` row-sum terms and :class:`NonFiniteEntry` for
    non-finite float input or an overflowed result.
    """
    n = m.dim
    if m.exact:
        rows, scale = _int_rows_and_scale(m)
        return Fraction(_glynn(rows), scale << (n - 1))
    _require_finite(m)
    try:
        result = _glynn(m.entries) / (1 << (n - 1))
    except OverflowError:  # a binomial weight too large for a float
        result = float("inf")
    if not _finite(result):
        raise NonFiniteEntry("permanent overflowed to a non-finite value")
    return result


def _glynn(rows):
    """2^(n-1) perm: sum of prod(d) prod_i sum_j d_j a_ij over signs d fixing one column at +1."""
    classes = Counter(zip(*rows))
    fixed = min(classes, key=classes.get)
    classes[fixed] -= 1
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


_SMALL_PRIMES = _odd_primes(2, isqrt(_PRIME_TOP) + 1, np.arange(3, 216, 2))
_PRIMES = _odd_primes(_PRIME_TOP - _WINDOW, _PRIME_TOP, _SMALL_PRIMES)


def _primes():
    """Primes below 2^31, descending: the import-time window, then windows sieved on demand."""
    yield from map(int, _PRIMES)
    for hi in range(_PRIME_TOP - _WINDOW, _WINDOW, -_WINDOW):
        yield from map(int, _odd_primes(hi - _WINDOW, hi, _SMALL_PRIMES))


def determinant(m: SquareMatrix) -> Scalar:
    """Determinant: multimodular elimination (exact) or partial pivoting (float).

    Exact mode returns the exact rational.  Rows are cleared to integers;
    the Hadamard bound |det| <= prod_i |row_i| fixes how many primes below
    2^31 are needed, one per 31 bits of twice the bound; blocks of 16
    primes are eliminated as one int64 array and Chinese remaindering gives
    the integer determinant.  The cost is about n^3 / 3 int64 updates per
    prime: the J matrix of (2S, N) = (1, 36) needs 251 primes.  Float mode
    raises :class:`NonFiniteEntry` for non-finite input or an overflowed
    result.
    """
    if m.exact:
        return _det_multimodular(m)
    return _det_float(m)


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
        raise CostGuard("Hadamard bound exceeds the primes below 2^31")
    limbs, signs = _limbs([x for row in rows for x in row])
    del rows  # the limbs hold the entries from here on; free the big ints
    blocks = []  # (det mod the block's product of primes, that product)
    for start in range(0, len(primes), _BLOCK):
        p = np.array(primes[start:start + _BLOCK], dtype=np.int64)
        dets = _det_mod(_reduce(limbs, signs, p).reshape(len(p), m.dim, m.dim), p)
        blocks.append(_crt(dets, p.tolist()))
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
    """|values| as columns of 16-bit limbs, shape (limbs, len(values)), and their signs."""
    width = max(abs(x).bit_length() for x in values) // 16 + 1
    buf = b"".join(abs(x).to_bytes(2 * width, "little") for x in values)
    limbs = np.frombuffer(buf, dtype="<u2").reshape(len(values), width).T.copy()
    return limbs, np.array([-1 if x < 0 else 1 for x in values], dtype=np.int64)


def _reduce(limbs, signs, p):
    """The values modulo each prime of ``p``: shape (len(p), values), entries in [0, p)."""
    width = len(limbs)
    powers = np.empty((width, len(p)), dtype=np.int64)  # powers[l] = 2^(16 l) mod p
    powers[0] = 1
    done = 1
    while done < width:
        step = powers[done - 1] * 65536 % p
        more = min(done, width - done)
        powers[done:done + more] = powers[:more] * step % p
        done += more
    powers = powers.T
    pb = p[:, None]
    res = powers[:, :_LIMB_CHUNK] @ limbs[:_LIMB_CHUNK]
    for c in range(_LIMB_CHUNK, width, _LIMB_CHUNK):
        res %= pb
        res += powers[:, c:c + _LIMB_CHUNK] @ limbs[c:c + _LIMB_CHUNK]
    res *= signs
    res %= pb
    return res


def _det_mod(a, p):
    """det a[b] mod p[b] for each b, as python ints; ``a`` (B, n, n), entries in [0, p), is overwritten.

    Division-free elimination: row_i <- piv * row_i - a_i0 * row_0 scales the
    determinant by piv once for each row below the pivot, so with P_k the
    product of the first k + 1 pivots, det = sign * P_{n-1} / prod_{k<n-1} P_k.
    Each step works on the trailing block as a new contiguous array.
    """
    every = np.arange(len(p))
    sign = np.ones(len(p), dtype=np.int64)
    prefix = np.ones(len(p), dtype=np.int64)
    denom = np.ones(len(p), dtype=np.int64)
    while True:
        r = np.argmax(a[:, :, 0] != 0, axis=1)  # row 0 when the column is zero mod p
        if r.any():
            a[every, 0], a[every, r] = a[every, r], a[every, 0]
            sign[r != 0] *= -1
        denom = denom * prefix % p
        prefix = prefix * a[:, 0, 0] % p
        if a.shape[1] == 1:
            break
        a[:, 1:, 1:] *= a[:, :1, :1]
        rest = a[:, 1:, :1] * a[:, :1, 1:]
        np.subtract(a[:, 1:, 1:], rest, out=rest)
        rest %= p[:, None, None]
        a = rest
    nums = (sign * prefix % p).tolist()
    return [num * pow(den, -1, q) % q if num else 0
            for num, den, q in zip(nums, denom.tolist(), p.tolist())]


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
