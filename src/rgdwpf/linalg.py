"""Scalar tower and dense kernels: permanents and determinants.

Two scalar modes exist and are never mixed inside one matrix:

* exact mode: python ints and :class:`fractions.Fraction`.  Every result is
  a canonical reduced rational, so identity checks use plain ``==`` with no
  tolerances and are independent of elimination order.
* float mode: ``float`` / ``complex``.  Entries are checked finite once, when
  a matrix is built.  The permanent runs in floats; everything else reads a
  real float as its exact dyadic value (:func:`dyadic`) and rounds once.

The permanent uses Glynn's formula (Eur. J. Combin. 31 (2010) 1887) over
classes of equal columns: flipping the sign of k of a class's m copies
adds (m - 2k) times the column to the row sums in comb(m, k) ways (R. Kan,
J. Multivariate Anal. 99 (2008) 542), and single columns are walked in
Gray-code order, about prod(m + 1) / 2 products of n row sums in all:
that work, not the dimension, is what :func:`permanent` guards.  Exact
kernels read each row as ints over one denominator (:class:`SquareMatrix`).

The exact determinant is multimodular (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 5): numpy float64 elimination modulo enough primes
below 2^26 for the Hadamard bound, small enough that every product of
residues is an exact double (Dumas, Giorgi and Pernet, ACM TOMS 35 (2008)
art. 19), then Chinese remaindering (see :func:`determinant`).  The
integer rows reach those residues by the same argument: their 16-bit limbs
times a table of 2^(16 l) mod p in [0, p) are integers below 2^42, and
2^10 of them sum below 2^52, so one float64 BLAS product per 2^10 limbs
is exact in any summation order, fused multiply-adds included; the
elimination's outer products are one sum-free ``np.einsum`` per step.
Importing the module sieves the 7,294 primes just below 2^26 (a few ms).

The hierarchy and matrix builders take exact inverse gaps 1/(x - z) and
their sums L(z) = sum_x 1/(z - x) = -G_1(z) from the numerators and
denominators of their exact inputs (:func:`_inverse_gaps`,
:func:`_inverse_gap_sum`): one normalisation per result instead of one
per ``Fraction`` operation, or none, over one denominator (:func:`_inverse_gap_row`).
"""

import sys
from cmath import isfinite
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import product, starmap
from math import comb, gcd, isqrt, lcm, prod

import numpy as np

from .errors import ComplexInput, CostGuard, NonFiniteEntry

Scalar = Fraction | int | float | complex

#: Largest n * prod(m + 1), m over the column classes left once one copy is fixed, that the
#: permanent admits: the work of a 20 x 20 permanent of distinct columns.
PERMANENT_MAX_TERMS = 20 << 19

#: The exact determinant eliminates modulo primes below this in float64, where the
#: update piv * a - c * d of residues stays below 2^51 (see :func:`determinant`).
_PRIME_TOP = 1 << 26
#: Primes sieved per window; the first window below 2^26 holds 7,294 primes.
_WINDOW = 1 << 17
#: Primes eliminated together: (n, n, block) float64 residues and a spare, 2 x 0.66 MB at n = 36.
_BLOCK = 64
#: Residues joined per group, then the groups' results: at 277 primes 16 beats 48 or 64.
_CRT_GROUP = 16
#: Limbs per float64 BLAS product: 2^10 products below 2^42, plus a residue, stay below 2^53.
_LIMB_CHUNK = 1 << 10


def is_exact(x) -> bool:
    """True for scalars of the exact (rational) mode."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def canonical(x):
    """ints become Fractions, so exact division never falls back to floats."""
    return Fraction(x) if is_exact(x) and not isinstance(x, Fraction) else x


def dyadic(x) -> Fraction:
    """Exact ``Fraction`` of a real scalar (a finite float is dyadic); refuses complex."""
    if type(x) is Fraction:
        return x
    if isinstance(x, complex):
        raise ComplexInput(f"only the permanent route takes complex values, got {x!r}")
    try:
        return Fraction(x)
    except (OverflowError, ValueError):  # inf, nan
        raise NonFiniteEntry(f"non-finite value {x!r}") from None


def rounded(x) -> float:
    """``float(x)``, correctly rounded for a Fraction; too large raises NonFiniteEntry."""
    try:
        return float(x)
    except OverflowError:
        raise NonFiniteEntry("value too large for a float") from None


def _inverse_gaps(xs, z) -> list:
    """[1/(x - z) for x in xs]; exact inputs give each as (c b - a d) over b d, normalised once."""
    if {type(z), *map(type, xs)} != {Fraction}:  # the float and complex permanent
        return [1 / (x - z) for x in xs]
    a, b = z.as_integer_ratio()
    return [Fraction(b * d, c * b - a * d) for c, d in map(Fraction.as_integer_ratio, xs)]


def _inverse_gap_row(xs, z) -> tuple:
    """(w, D) with 1/(x_i - z) = w_i / D for Fractions, D the lcm of the gap numerators."""
    a, b = z.as_integer_ratio()
    cds = [x.as_integer_ratio() for x in xs]
    gaps = [c * b - a * d for c, d in cds]  # x - z = (c b - a d) / (b d)
    common = lcm(*gaps)
    return [b * d * (common // g) for (_, d), g in zip(cds, gaps)], common


def _inverse_gap_sum(z: Fraction, xs) -> Fraction:
    """sum_x 1/(z - x) = -sum(w) / D: one normalisation, not one per term of a Fraction sum."""
    w, common = _inverse_gap_row(xs, z)
    return Fraction(-sum(w), common)


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

    An exact matrix holds row i as the ints ``rows[i]`` over ``denominators[i]``,
    its entries' least common denominator; :meth:`from_rows` makes ``entries`` on first read.
    """

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
        self.rows, self.denominators = zip(*map(_cleared, rows)) if self.exact else (None, None)

    @classmethod
    def from_rows(cls, pairs) -> "SquareMatrix":
        """Exact n x n matrix whose row i is the n ints pairs[i][0] over pairs[i][1] > 0."""
        m = object.__new__(cls)
        m.exact, m.dim = True, len(pairs)
        m.rows, m.denominators = zip(*starmap(_lowest_terms, pairs))
        return m

    @cached_property
    def entries(self) -> tuple:
        return tuple(tuple(Fraction(x, d) for x in r) for r, d in zip(self.rows, self.denominators))

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.exact == other.exact
                and (self.rows, self.denominators) == (other.rows, other.denominators)
                and (self.exact or self.entries == other.entries))

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"SquareMatrix(dim={self.dim}, {kind})"


def _coerce(x, exact):
    return Fraction(x) if exact else complex(x) if isinstance(x, complex) else float(x)


def _lowest_terms(row, d) -> tuple:
    """(ints, d) for the rationals row[j] / d, both divided by their gcd."""
    g = gcd(d, *row)
    return (tuple(row), d) if g == 1 else (tuple(x // g for x in row), d // g)


def _cleared(row) -> tuple:
    """(ints, d): a row of Fractions as integers over d, the lcm of its denominators."""
    pairs = [x.as_integer_ratio() for x in row]
    d = lcm(*(q for _, q in pairs))
    return tuple(a * (d // q) for a, q in pairs), d


def permanent(m: SquareMatrix) -> Scalar:
    """Permanent by Glynn's formula over classes of equal columns.

    Exact mode returns the exact rational.  Raises :class:`CostGuard` above
    ``PERMANENT_MAX_TERMS`` row-sum terms and :class:`NonFiniteEntry` for
    an overflowed float result.
    """
    n = m.dim
    if m.exact:
        return Fraction(_glynn(m.rows, exact=True), prod(m.denominators) << (n - 1))
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


def determinant(m: SquareMatrix) -> Fraction | float:
    """Exact determinant by multimodular elimination; for a float matrix, rounded once.

    Exact mode returns the exact rational; a float matrix, its entries'
    exact determinant correctly rounded (:func:`dyadic`, :func:`rounded`).
    It is det(rows) / prod(denominators); the Hadamard bound |det(rows)| <=
    prod_i |row_i| fixes how many primes below 2^26 are needed, one per 26 bits
    of twice the bound; blocks of 64 primes are eliminated together in float64,
    on two arrays that swap every step, and Chinese remaindering gives the integer
    determinant.  After every step residues are brought
    back into |r| <= p/2 + 1 by r = x - p * rint(x * (1/p)), and every step
    is exact: each factor of the division-free update piv * a - c * d is at
    most p/2 + 1, so |update| <= 2 (p/2 + 1)^2 < 2^51; the computed
    quotient is within 2^-27 of x/p, so |r| <= p/2 + 1 again; q * p and the
    difference are exact integers in a double; and since |r| < p, a pivot
    that vanishes modulo p is an exact ``== 0``.  The cost is about n^3 / 3 updates
    of seven float64 passes per prime and 9 numpy calls per step and block: J at (1, 36)
    needs 240-300 primes, 100 us each (2-core Xeon); 53-bit floats, ten times as many.
    """
    if m.exact:
        return _det_multimodular(m)
    return rounded(_det_multimodular(SquareMatrix([[dyadic(x) for x in r] for r in m.entries])))


def _det_multimodular(m: SquareMatrix) -> Fraction:
    n, rows = m.dim, m.rows
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
    p = np.array(primes, dtype=np.float64)
    pinv = 1 / p
    # limb powers are tabled for as many blocks of primes at once as keep the table no
    # larger than the limbs: all primes at once when the n^2 entries outnumber them
    group = _BLOCK * max(1, len(limbs) // _BLOCK)
    pivots, sign = np.empty((n, len(p))), np.ones(len(p))
    a, spare = np.empty((2, n * n * _BLOCK))  # each block's residues and its one spare
    for b in range(0, len(p), _BLOCK):
        if b % group == 0:
            powers = _limb_powers(limbs.shape[1], p[b:b + group])
        block = slice(b, b + _BLOCK)
        size = n * n * len(p[block])
        _reduce(limbs, signs, powers[:, b % group:b % group + _BLOCK], p[block], pinv[block],
                a[:size].reshape(n * n, -1), spare[:size].reshape(n * n, -1))
        _eliminate(a, spare, p[block], pinv[block], pivots[:, block], sign[block])
    # each step scales the determinant by piv once per row below the pivot, so with
    # P_k the product of the first k + 1 pivots, det = sign * P_{n-1} / prod_{k<n-1} P_k
    prefix, denom, scratch = np.ones(len(p)), np.ones(len(p)), np.empty(len(p))
    for piv in pivots:
        denom = _mod(denom * prefix, p, pinv, scratch)
        prefix = _mod(prefix * piv, p, pinv, scratch)
    dets = [int(num) * pow(int(den), -1, q) % q if num else 0
            for num, den, q in zip((sign * prefix).tolist(), denom.tolist(), primes)]
    blocks = [_crt(dets[b:b + _CRT_GROUP], primes[b:b + _CRT_GROUP])
              for b in range(0, len(p), _CRT_GROUP)]
    det, modulus = _crt([r for r, _ in blocks], [q for _, q in blocks])
    if 2 * det > modulus:
        det -= modulus
    return Fraction(det, prod(m.denominators))


def _crt(residues, moduli):
    """(x, prod(moduli)) with 0 <= x < prod(moduli) and x = r mod q for each pair; moduli coprime."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        x += m * ((r - x) * pow(m, -1, q) % q)
        m *= q
    return x, m


def _limbs(values):
    """|values| as float64 rows of 16-bit limbs, (values, limbs), and their signs as a column."""
    width = max(map(int.bit_length, values)) // 16 + 1
    buf = b"".join([abs(x).to_bytes(2 * width, "little") for x in values])
    limbs = np.frombuffer(buf, dtype="<u2").reshape(len(values), width).astype(np.float64)
    return limbs, np.array([-1.0 if x < 0 else 1.0 for x in values])[:, None]


def _mod(x, p, pinv, q):
    """x - p * rint(x * pinv), in place, with scratch ``q`` shaped as x; exact for |x| < 2^53."""
    np.multiply(x, pinv, out=q)
    x -= np.multiply(np.rint(q, out=q), p, out=q)
    return x


def _limb_powers(width, p):
    """2^(16 l) mod p[b] at [l, b] for l < width: float64 (width, len(p)), entries in [0, p)."""
    q = p.astype(np.int64)
    powers = np.empty((width, len(p)), dtype=np.int64)
    powers[0] = 1
    done = 1
    while done < width:
        step = powers[done - 1] * 65536 % q
        more = min(done, width - done)
        powers[done:done + more] = powers[:more] * step % q
        done += more
    return powers.astype(np.float64)


def _reduce(limbs, signs, powers, p, pinv, res, tmp):
    """Writes the values modulo each prime of ``p`` to ``res``, |entries| <= p/2 + 1.

    ``limbs``, ``signs`` from :func:`_limbs`, ``powers`` from :func:`_limb_powers`; ``res``
    and the scratch ``tmp`` contiguous float64 (values, len(p)).
    """
    # float64 BLAS products, exact in any summation order, FMA included: every
    # limb * power is an integer below 2^16 * 2^26 = 2^42, so a chunk's sum stays
    # below 2^52 and, with the residue carried in res, below 2^53
    np.matmul(limbs[:, :_LIMB_CHUNK], powers[:_LIMB_CHUNK], out=res)
    _mod(res, p, pinv, tmp)
    for c in range(_LIMB_CHUNK, limbs.shape[1], _LIMB_CHUNK):
        res += np.matmul(limbs[:, c:c + _LIMB_CHUNK], powers[c:c + _LIMB_CHUNK], out=tmp)
        _mod(res, p, pinv, tmp)
    res *= signs


def _eliminate(a, spare, p, pinv, pivots, sign):
    """Division-free elimination of the (n, n, B) residues in a[:n * n * B], lane b modulo p[b].

    ``a`` and ``spare`` are flat float64 arrays that swap every step, the one not written
    to serving as scratch.  Writes the pivots to pivots[:, b], flips sign[b] per row swap.
    Passes run along whole rows, (m, m B); one einsum writes the outer product c_i * r_j.
    """
    n, width = pivots.shape
    tiled = np.array([p, pinv, p])[:, None].repeat(n - 1, axis=1).reshape(3, -1)  # p, 1/p, piv
    for m in range(n, 1, -1):
        lanes, row = a[:m * m * width].reshape(m, m, width), (m - 1) * width
        if np.count_nonzero(lanes[0, 0]) < width:
            r = np.argmax(lanes[:, 0] != 0, axis=0)  # row 0 when the column is zero mod p
            b = np.flatnonzero(r)
            lanes[0, :, b], lanes[r[b], :, b] = lanes[r[b], :, b], lanes[0, :, b]
            sign[b] = -sign[b]
        pivots[n - m] = tiled[2, :row].reshape(m - 1, width)[:] = lanes[0, 0]  # two copies
        out, rest = spare[:(m - 1) * row].reshape(m - 1, row), lanes.reshape(m, -1)[1:, width:]
        np.einsum("ib,jb->ijb", lanes[1:, 0], lanes[0, 1:], out=out.reshape(m - 1, m - 1, width))
        np.subtract(np.multiply(rest, tiled[2, :row], out=rest), out, out=out)  # piv a - c d
        _mod(out, tiled[0, :row], tiled[1, :row], a[:(m - 1) * row].reshape(m - 1, row))
        a, spare = spare, a
    pivots[n - 1] = a[:width]
