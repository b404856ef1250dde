"""Multimodular exact kernels on integer matrices.

The three kernels take integer matrices (lists of lists of Python ints of
any size) and return exact integers. Each is a bound and a step on one
loop, ``_multimodular``: the rows are reduced modulo a chunk of word-size
primes at a time on int64 numpy arrays, the step turns each slice into
residues of the result, and one Chinese remaindering per call rebuilds it.
``det_int`` and ``jordan_int`` run the one Gauss-Jordan elimination of the
package, on M and on [M | R], under the Hadamard bound
H = prod_i (isqrt(|row_i|^2) + 1), which bounds the determinant and, taken
over the rows of [M | R], every Cramer numerator of M X = R.
``charpoly_int`` brings M to Hessenberg form by similarity and runs the
Hessenberg charpoly recurrence, under the bound
B = prod_i (isqrt(|row_i|^2) + 2) on its coefficients. Once the primes'
product passes twice the bound the symmetric residues are the integers
themselves, so the results are exact by construction, not by a
probabilistic stopping rule (Abbott, Bronstein & Mulders, ISSAC 1999).
"""

import math
import operator

import numpy as np

# Kept as a constant: ``perfbench/run.py`` stamps every result with it.
KERNEL_LANE = "python"

# Every prime lies in (2**30, 2**31): residues are below 2**31, so a product
# of two residues plus one more residue stays below 2**63 in int64, and each
# prime adds more than 30 bits to the modulus.
_PRIME_BITS = 30
# Primes reduced together in one batch of int64 arrays, a slice per prime:
# numpy's per-call overhead is paid once per chunk, and a chunk's arrays
# hold at most _CHUNK residues per entry of the input.
_CHUNK = 8
# Bits per limb when an entry is split to be reduced modulo a prime.
_LIMB_BITS = 30
_LIMB_MASK = (1 << _LIMB_BITS) - 1

# The table only ever grows by the same deterministic sequence, so sharing
# it between callers changes no result.
_primes = []


def _is_prime(n):
    """Deterministic Miller-Rabin; the bases 2, 3, 5, 7 decide every
    n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_table(count):
    """The first ``count`` primes below 2**31, largest first; the table is
    built on first use and grown on demand."""
    candidate = _primes[-1] - 2 if _primes else (1 << 31) - 1
    while len(_primes) < count:
        if _is_prime(candidate):
            _primes.append(candidate)
        candidate -= 2
    if _primes[count - 1] >> _PRIME_BITS != 1:
        raise OverflowError("prime table left (2**30, 2**31)")
    return _primes[:count]


def hadamard_bound(rows):
    """prod_i (isqrt(|row_i|^2) + 1): a bound on |det| of every square
    matrix whose rows are taken, one entry each, from these rows."""
    return math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in rows)


def _next_primes(used, modulus, bound):
    """The primes after the first ``used`` for the next chunk: the primes
    still needed to bring ``modulus`` past ``bound``, split into as few
    chunks of at most _CHUNK as possible and as evenly as possible."""
    need = 0
    while modulus <= bound:
        need += 1
        modulus *= prime_table(used + need)[-1]
    count = -(-need // -(-need // _CHUNK))
    return prime_table(used + count)[used:]


class _Residues:
    """The entries of an integer matrix, ready to be reduced modulo any
    chunk of primes."""

    def __init__(self, rows):
        try:
            self.limbs, self.negative = [np.array(rows, dtype=np.int64)], None
        except OverflowError:
            # Entries beyond int64: the magnitudes in 30-bit limbs.
            big = np.array(rows, dtype=object)
            self.negative = big < 0
            big = np.abs(big)
            self.limbs = []
            while big.any():
                self.limbs.append((big & _LIMB_MASK).astype(np.int64))
                big >>= _LIMB_BITS

    def modulo(self, primes):
        """A c x n x w int64 array whose slice t is the matrix modulo
        primes[t]."""
        p = np.array(primes, dtype=np.int64)[:, None, None]
        res = np.remainder(self.limbs[0], p)
        for t in range(1, len(self.limbs)):
            shift = np.array([pow(2, _LIMB_BITS * t, q) for q in primes],
                             dtype=np.int64)[:, None, None]
            res += self.limbs[t] * shift % p
            res %= p
        if self.negative is not None:
            np.negative(res, out=res, where=self.negative)
            res %= p
        return res


def _mod(x, primes, p, scratch):
    """x <- x mod p in place, for 0 <= x < 2**63, where x[t] is reduced
    modulo primes[t] and p holds the primes shaped to broadcast against x.
    A floor division by each prime as a scalar, which numpy runs two to
    three times faster than int64 remainder or division by a broadcast
    array, then a multiply-subtract; ``scratch`` has x's shape."""
    for t, q in enumerate(primes):
        np.floor_divide(x[t], q, out=scratch[t])
    np.multiply(scratch, p, out=scratch)
    np.subtract(x, scratch, out=x)


class _Crt:
    """Chinese remaindering of an r x m integer matrix from its residues,
    added a chunk of primes at a time; each kernel call builds one.

    Each pair of primes is combined at once in int64 (Garner's step, the
    product of two primes being below 2**62); the Python integer values are
    updated row by row once _CHUNK primes are pending, and at the end, so
    that there is about one pass over the wide values per _CHUNK primes.
    """

    def __init__(self, r, m):
        self.modulus = 1
        self.values = [[0] * m for _ in range(r)]
        self._moduli, self._terms, self._pending = [], [], 0

    def add(self, primes, residues):
        """Add residues[t] (an r x m int64 array) modulo primes[t]."""
        for t in range(0, len(primes) - 1, 2):
            p, q = primes[t], primes[t + 1]
            lift = (residues[t + 1] - residues[t]) % q
            lift *= pow(p, -1, q)
            lift %= q
            lift *= p
            lift += residues[t]
            self._moduli.append(p * q)
            self._terms.append(lift)
        if len(primes) % 2:
            self._moduli.append(primes[-1])
            self._terms.append(residues[-1].copy())
        self.modulus *= math.prod(primes)
        self._pending += len(primes)
        if self._pending >= _CHUNK:
            self._fold()

    def _fold(self):
        q = math.prod(self._moduli)
        basis = [(q // qi) * pow(q // qi, -1, qi) for qi in self._moduli]
        terms = np.stack(self._terms)
        self._moduli, self._terms, self._pending = [], [], 0
        m = self.modulus // q
        m_inv = pow(m, -1, q)
        # Row by row, so that only one row of temporaries is alive.
        for i, row in enumerate(self.values):
            self.values[i] = [
                x + m * ((sum(map(operator.mul, ts, basis)) - x % q) * m_inv % q)
                for x, ts in zip(row, zip(*terms[:, i].tolist()))]

    def symmetric(self):
        """The values in the symmetric range (-modulus/2, modulus/2]."""
        if self._terms:
            self._fold()
        m, half = self.modulus, self.modulus >> 1
        return [[x - m if x > half else x for x in row] for row in self.values]


def _multimodular(rows, bound, shape, step):
    """The r x m integer matrix, (r, m) = shape, with entries at most
    ``bound`` in absolute value, from the residues ``step`` computes; and
    the ops of ``step``, summed. ``step(a, primes)`` may overwrite a, the
    rows modulo a chunk of primes, and returns (c x r x m residues, whether
    each prime was usable, ops). ZeroDivisionError is raised once the
    unusable primes' product passes 2 * bound.
    """
    bound *= 2
    residues = _Residues(rows)
    crt = _Crt(*shape)
    used, ops, skipped = 0, 0, 1
    while crt.modulus <= bound:
        if skipped > bound:
            raise ZeroDivisionError("matrix is singular")
        primes = _next_primes(used, crt.modulus, bound)
        used += len(primes)
        out, live, chunk_ops = step(residues.modulo(primes), primes)
        ops += chunk_ops
        skipped *= math.prod(q for q, ok in zip(primes, live) if not ok)
        crt.add([q for q, ok in zip(primes, live) if ok], out[live])
        # The chunk's arrays go before the next chunk's are made.
        del out
    return crt.symmetric(), ops


def _eliminate(a, primes):
    """Gauss-Jordan elimination with unit pivots on the residues a
    (c x n x w int64, one n x w slice per prime).

    Each step writes the updated rows as one contiguous array without the
    pivot column, which numpy reduces several times faster than a strided
    view; two buffers of a's size take turns holding it. Returns (det
    residue per prime, whether each prime had a pivot in every column, ops,
    the last array). A prime without a pivot in some column has det = 0
    modulo it; its slice is carried on with a stand-in pivot and must be
    ignored. For a = [M | R] the last array is M^-1 R modulo each prime.
    """
    c, n, w = a.shape
    p2 = np.array(primes, dtype=np.int64)[:, None]
    p3 = p2[:, :, None]
    here, there = a.reshape(-1), np.empty(a.size, dtype=np.int64)
    det = [1] * c
    live = [True] * c
    ops = 0
    for k in range(n):
        # Column 0 of a is column k.
        piv = a[:, k, 0].tolist()
        for t in range(c):
            if piv[t]:
                continue
            below = np.flatnonzero(a[t, k:, 0])
            if below.size == 0:
                live[t] = False
                piv[t] = 1
                continue
            r = k + int(below[0])
            a[t, [k, r]] = a[t, [r, k]]
            piv[t] = int(a[t, k, 0])
            det[t] = -det[t]
        det = [d * x % q for d, x, q in zip(det, piv, primes)]
        inv = np.array([pow(x, -1, q) for x, q in zip(piv, primes)],
                       dtype=np.int64)[:, None]
        rowk = a[:, k, 1:]
        # Row i gains -a[i][k]/pivot times row k; row k itself gains
        # (1/pivot - 1) times itself, which scales it to a unit pivot.
        factors = (p2 - a[:, :, 0]) * inv % p2
        factors[:, k] = inv[:, 0] - 1
        body = a[:, :, 1:]
        ops += c * (n - 1) * (w - k - 1)
        shape = body.shape
        a = there[:body.size].reshape(shape)
        np.multiply(factors[:, :, None], rowk[:, None, :], out=a)
        np.add(a, body, out=a)
        # The last array is no longer read: its buffer holds the quotients.
        _mod(a, primes, p3, here[:a.size].reshape(shape))
        here, there = there, here
    det = [d if alive else 0 for d, alive in zip(det, live)]
    return det, live, ops, a


def _det_step(a, primes):
    # det 0 modulo a prime without a pivot is still the det's residue.
    det, _, ops, _ = _eliminate(a, primes)
    return np.array(det, dtype=np.int64)[:, None, None], [True] * len(primes), ops


def det_int(rows):
    """Determinant of a square integer matrix.

    Returns (det, ops) where ops counts the multiply-mod updates of the
    Gauss-Jordan elimination, summed over the primes; a singular matrix
    has det 0 modulo every prime, and det 0. The input is not mutated.
    """
    if not rows:
        return 1, 0
    values, ops = _multimodular(rows, hadamard_bound(rows), (1, 1), _det_step)
    return values[0][0], ops


def _solve_step(a, primes):
    # adj(M) [R | M 1] = [adj(M) R | det(M) 1]: det(M) is rebuilt as one
    # more column of the solution. Primes that divide det(M) are unusable.
    det, live, ops, sol = _eliminate(a, primes)
    det = np.array(det, dtype=np.int64)[:, None, None]
    sol *= det
    sol %= np.array(primes, dtype=np.int64)[:, None, None]
    column = np.broadcast_to(det, sol.shape[:2] + (1,))
    return np.concatenate((sol, column), axis=2), live, ops


def jordan_int(aug, n, m):
    """Gauss-Jordan on an n x (n+m) integer matrix [M | R].

    Returns (det, num, ops) where det = det(M) and num = adj(M) R, the
    n x m integer matrix with M @ (num / det) == R exactly; ops counts the
    multiply-mod updates, summed over the primes. Primes dividing det(M) are
    skipped; M is singular exactly when their product passes the bound,
    and then ZeroDivisionError is raised. The input is not mutated.
    """
    if n == 0:
        return 1, [], 0
    values, ops = _multimodular(aug, hadamard_bound(aug), (n, m + 1), _solve_step)
    return values[0][m], [row[:m] for row in values], ops


def charpoly_bound(rows):
    """prod_i (isqrt(|row_i|^2) + 2): a bound on the sum of the absolute
    values of the coefficients of det(xI - M).

    The coefficient of x^(n-k) is (-1)^k times the sum of the principal
    k x k minors, and Hadamard bounds each minor on the rows S by
    prod_{i in S} |row_i|; summed over every S that is prod_i (1 + |row_i|).
    """
    return math.prod(math.isqrt(sum(x * x for x in row)) + 2 for row in rows)


def _dot_mod(a, v, p):
    """(a @ v) mod p per prime for a (c x r x s) and v (c x s), entries
    below 2**31 and s < 2**16: v is split into 16-bit limbs, so that every
    partial sum stays below 2**63."""
    lo = np.matmul(a, (v & 0xFFFF)[:, :, None])[:, :, 0]
    hi = np.matmul(a, (v >> 16)[:, :, None])[:, :, 0]
    hi %= p
    hi <<= 16
    hi += lo
    hi %= p
    return hi


def _hessenberg(h, primes):
    """Bring each slice h[t] to upper Hessenberg form modulo primes[t] by
    similarity, in place; entries below the subdiagonal are left as they
    are and must be ignored. Returns the multiply-mod updates, summed over
    the primes.

    Column k is cleared below row k + 1 by the row updates row_i -= u_i
    row_{k+1} and their inverse, column k+1 += sum_i u_i column_i. A slice
    whose pivot h[k+1][k] vanishes first swaps in a row below with a
    nonzero entry, together with the matching column; a slice without one
    is already reduced in column k, since every u_i is then 0.
    """
    c, n, _ = h.shape
    p = np.array(primes, dtype=np.int64)[:, None]
    ops = 0
    for k in range(n - 2):
        piv = h[:, k + 1, k].tolist()
        for t in range(c):
            if piv[t]:
                continue
            below = np.flatnonzero(h[t, k + 2:, k])
            if below.size:
                r = k + 2 + int(below[0])
                h[t, [k + 1, r]] = h[t, [r, k + 1]]
                h[t][:, [k + 1, r]] = h[t][:, [r, k + 1]]
                piv[t] = int(h[t, k + 1, k])
        inv = np.array([pow(x, -1, q) if x else 0 for x, q in zip(piv, primes)],
                       dtype=np.int64)[:, None]
        u = h[:, k + 2:, k] * inv % p
        body = h[:, k + 2:, k + 1:]
        body += (p - u)[:, :, None] * h[:, k + 1, None, k + 1:]
        body %= p[:, :, None]
        col = h[:, :, k + 1]
        col += _dot_mod(h[:, :, k + 2:], u, p)
        col %= p
        ops += c * (n - k - 2) * (2 * n - k - 1)
    return ops


def _hessenberg_charpoly(h, primes):
    """Coefficients, constant term first, of det(xI - h[t]) modulo
    primes[t] for upper Hessenberg slices h[t]: a c x (n+1) array, and the
    multiply-mod updates summed over the primes.

    The recurrence of Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9, on the leading principal minors q_m of xI - h:
    q_{m+1} = x q_m - sum_{i<=m} h[i][m] s_i q_i, where s_i is the product
    of the subdiagonal entries h[j][j-1] for i < j <= m.
    """
    c, n, _ = h.shape
    p = np.array(primes, dtype=np.int64)[:, None]
    # Row m holds q_m, whose degree is m.
    q = np.zeros((c, n + 1, n + 1), dtype=np.int64)
    q[:, 0, 0] = 1
    s = np.ones((c, n), dtype=np.int64)
    ops = 0
    for m in range(n):
        if m:
            s[:, :m] *= h[:, m, m - 1, None]
            s[:, :m] %= p
        t = h[:, :m + 1, m] * s[:, :m + 1] % p
        nxt = q[:, m + 1]
        nxt[:, 1:m + 2] = q[:, m, :m + 1]
        nxt[:, :m + 1] -= _dot_mod(q[:, :m + 1, :m + 1].transpose(0, 2, 1), t, p)
        nxt %= p
        ops += c * (m + 1) * (m + 2)
    return q[:, n], ops


def _charpoly_step(h, primes):
    ops = _hessenberg(h, primes)
    coeffs, more = _hessenberg_charpoly(h, primes)
    return coeffs[:, None, :], [True] * len(primes), ops + more


def charpoly_int(rows):
    """Characteristic polynomial det(xI - M) of a square integer matrix.

    Returns (coeffs, ops): the n + 1 integer coefficients, constant term
    first, and the multiply-mod updates of the Hessenberg reductions and
    recurrences, summed over the primes. Hessenberg reduction needs no
    division by anything but a nonzero pivot, so every prime is usable;
    primes are taken until their product passes twice ``charpoly_bound``.
    The input is not mutated.
    """
    if not rows:
        return [1], 0
    values, ops = _multimodular(rows, charpoly_bound(rows), (1, len(rows) + 1),
                                _charpoly_step)
    return values[0], ops
