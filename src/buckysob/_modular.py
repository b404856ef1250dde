"""Multimodular exact kernels on integer matrices.

The three kernels take integer matrices (lists of lists of Python ints of
any size) and return exact integers. Each is a bound and a step on one
loop, ``_multimodular``: the rows are reduced modulo a chunk of word-size
primes at a time on int64 numpy arrays, as many primes to a chunk as keep
it within a fixed budget of residues (``_BUDGET``), so that a small
matrix's primes run as one batch; the step turns each slice into
residues of the result, and one ``_Crt`` per call keeps them until the
result is read. The read is Chinese remaindering as one exact matrix
product over 16-bit limbs in float64 (every partial sum an integer below
2**53), a block of entries at a time, so that no entry is rebuilt by
Python big-integer arithmetic; see ``_Crt``. The read of an entry depends
on its residues alone, so it rebuilds each distinct residue column once:
the inverses of the package's symmetric matrices have few distinct
values (24 of 3,600 in (A + I)^-1 on the buckyball).
``det_int`` and ``jordan_int`` run the one elimination of the package, an
in-place Gauss-Jordan inversion of M's residues (n^3 multiply-mod updates
per prime), under the Hadamard bound H = prod_i (isqrt(|row_i|^2) + 1),
which bounds the determinant and every cofactor. ``jordan_int`` only
inverts: by default it returns det(M) and adj(M), and a solve M X = R
multiplies the exact inverse by R outside the kernel, in ``ratmat``.
Given a denominator d and a bound B instead, it returns d M^-1 from primes
run to B, which is exact only if d M^-1 is integral with entries at most
B; the caller proves it (the block route of G(a) by its exact residual).
H still decides singularity in that mode.
``charpoly_int`` brings M to Hessenberg form by similarity and runs the
Hessenberg charpoly recurrence, under the bound
B = prod_i (isqrt(|row_i|^2) + 2) on its coefficients. Primes are taken
until their product P passes 2B + (B >> 18), a little more than twice the
bound: past 2B the symmetric residues are the integers themselves (Abbott,
Bronstein & Mulders, ISSAC 1999), and the extra 2**-18 B keeps every
result's x/P at least 2**-21 from 1/2, so that the read rounds each one
by its float estimate alone. Every result is exact by the bound alone, and
the bound alone decides singularity, save for ``jordan_int``'s given
bound, which the caller proves.
"""

import math

import numpy as np

# Kept as a constant: ``perfbench/run.py`` stamps every result with it.
KERNEL_LANE = "python"

# Every prime lies in (2**30, 2**31): residues are below 2**31, so a product
# of two residues plus one more residue stays below 2**63 in int64, and each
# prime adds more than 30 bits to the modulus.
_PRIME_BITS = 30
# Residues reduced together in one batch of int64 arrays, a slice per
# prime: a chunk of an r x m input holds at most max(1, _BUDGET // (r m))
# primes, so that each working array stays near 512 KB, and numpy's
# per-call overhead is paid once per chunk. That is 72 primes for a 30 x 30
# and 18 for a 60 x 60.
_BUDGET = 1 << 16
# Bits per limb when an entry is split to be reduced modulo a prime.
_LIMB_BITS = 30
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Entries rebuilt together in one read: a block's limb products hold about
# this many limb x entry elements.
_BLOCK = 1 << 13
# Primes summed in one float64 product: 64 products of a weight below 2**31
# and a 16-bit limb sum to less than 2**53, so every partial sum is exact.
_GROUP = 64

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
    """prod_i (isqrt(|row_i|^2) + 1): a bound on |det| of the square matrix
    M of these rows and on every cofactor of M, whose rows are parts of
    all but one of M's rows. It is the only bound an inverse needs: a solve
    multiplies the exact adj(M) / det(M) by its right-hand side. Like every
    bound of ``_multimodular``, its primes run past 2H + (H >> 18)."""
    return math.prod(math.isqrt(sum(x * x for x in row)) + 1 for row in rows)


def _next_primes(used, modulus, bound, cap):
    """The primes after the first ``used`` for the next chunk: the primes
    still needed to bring ``modulus`` past ``bound``, split into as few
    chunks of at most ``cap`` as possible and as evenly as possible."""
    need = 0
    while modulus <= bound:
        need += 1
        modulus *= prime_table(used + need)[-1]
    count = -(-need // -(-need // cap))
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


def _limb_product(limbs, y):
    """limbs @ y, exact, as int64: float64 arrays of integers, limbs below
    2**16 and y below 2**31, with fewer than 2**15 columns of limbs. The
    columns are taken _GROUP at a time, each group's product being exact in
    float64, and the groups are added in int64."""
    x = (limbs[:, :_GROUP] @ y[:_GROUP]).astype(np.int64)
    for g in range(_GROUP, limbs.shape[1], _GROUP):
        x += (limbs[:, g:g + _GROUP] @ y[g:g + _GROUP]).astype(np.int64)
    return x


class _Crt:
    """Chinese remaindering of an integer matrix from its residues, added a
    chunk of primes at a time; each kernel call builds one.

    ``add`` keeps each prime's residues as int32 and nothing is rebuilt
    until a read. A read rebuilds a block of entries at a time, as one
    exact product over 16-bit limbs (Doliskani, Giorgi, Lebreton & Schost,
    ACM TOMS 44(3), 2018). With P the product of the primes p_j and c_j =
    P/p_j, the weights y_j = r_j (c_j^-1 mod p_j) mod p_j give
    x' = sum_j y_j c_j = x (mod P):

    - x' limb by limb is a float64 product of the limbs of the c_j by the
      y_j, taken over groups of at most 64 primes. Each term is below
      2**31 * 2**16, so every partial sum of a group is an integer below
      2**53 and exact, in any order of summation and with any BLAS
      threading; the groups are added in int64, which holds their sum for
      fewer than 2**15 primes.
    - The symmetric residue is x = x' - u P with u the integer nearest to
      s = x'/P = sum_j y_j / p_j. In float64 each term y_j / p_j is off by
      less than 2**-52 and the sum of k terms, each below 1, adds less
      than k**2 2**-53, so the computed s is off by less than k**2 2**-52,
      which is below 2**-22 for k < 2**15. The read is exact for entries
      with (2 + 2**-18) |x| < P, which ``_multimodular`` guarantees by
      its choice of primes: their true fraction x/P lies more than 2**-21
      from 1/2, so u = rint(s).
    - u P is subtracted limb by limb and the limbs are carried in int64 by
      arithmetic shifts, all at once until no carry is left, so that every
      limb but the top one lies in [0, 2**16) and the top one holds the
      sign. Each column is then read from its limbs with one
      ``int.from_bytes``.
    - Every step above is a function of one entry's residues, so entries
      with equal residue columns read equal. The read groups the entries
      by their columns first (``_groups``), rebuilds one column per group
      and hands its integer to every entry of the group.
    """

    def __init__(self):
        self.modulus, self._primes, self._residues = 1, [], []

    def add(self, primes, residues):
        """Add residues[t], an r x m array of values in [0, primes[t]),
        modulo primes[t]. ``primes`` may be empty, when no prime of a chunk
        was usable; residues then has no slice."""
        self._shape = residues.shape[1:]
        if primes:
            self._primes.extend(primes)
            self._residues.append(
                residues.reshape(len(primes), -1).astype(np.int32))
        self.modulus *= math.prod(primes)

    def symmetric(self):
        """The values in the symmetric range (-modulus/2, modulus/2]."""
        big, primes = self.modulus, self._primes
        r, m = self._shape
        k = len(primes)
        if k >= 1 << 15:
            raise OverflowError("too many primes for one read")
        index, reps = self._groups()
        cofactors = [big // q for q in primes]
        p = np.array(primes, dtype=np.int64)[:, None]
        inv = np.array([pow(c, -1, q) for c, q in zip(cofactors, primes)],
                       dtype=np.int64)[:, None]
        recip = 1.0 / np.array(primes, dtype=np.float64)
        width = -(-big.bit_length() // 16)
        limbs = np.frombuffer(
            b"".join(c.to_bytes(2 * width, "little") for c in cofactors),
            dtype="<u2").reshape(k, width).T.astype(np.float64)
        modulus_limbs = np.frombuffer(big.to_bytes(2 * width, "little"),
                                      dtype="<u2").astype(np.int64)[:, None]
        step = max(1, _BLOCK // width)
        values = []
        for lo in range(0, len(reps), step):
            block = reps[lo:lo + step]
            y = np.concatenate([res[:, block] for res in self._residues],
                               dtype=np.int64)
            y *= inv
            y %= p
            y = y.astype(np.float64)
            # A product and a sum, not a BLAS product: the same bound, with
            # one BLAS routine fewer paged in.
            s = (y * recip[:, None]).sum(axis=0)
            x = _limb_product(limbs, y)
            x -= modulus_limbs * np.rint(s).astype(np.int64)
            while True:
                carry = x[:-1] >> 16
                if not np.count_nonzero(carry):
                    break
                x[:-1] &= 0xFFFF
                x[1:] += carry
            raw = x.T.astype("<u2").tobytes()
            values += [int.from_bytes(raw[i:i + 2 * width], "little", signed=True)
                       for i in range(0, len(raw), 2 * width)]
        return [list(map(values.__getitem__, row))
                for row in index.reshape(r, m).tolist()]

    def _groups(self):
        """(index, reps): entry i of the result is in group index[i], and
        reps[g] is the first entry of group g, both as intp arrays. The
        entries of a group have equal residue columns, so one read of
        reps[g] serves them all.

        An entry's key is its residues modulo the first two primes, which
        may lie in different chunks, packed into one int64 as
        r_0 2**31 + r_1; with one prime it is r_0 alone. Equal keys are
        grouped by a dict, which adds no array of the residues' size, and
        every prime's residues are then compared within each group: two
        values share a key only when they agree modulo p_0 p_1 > 2**60, and
        if any group holds two that differ, every entry is its own group.
        """
        first_two = np.concatenate([res[:2] for res in self._residues[:2]])[:2]
        key = first_two[0].astype(np.int64)
        if len(first_two) == 2:
            key <<= 31
            key |= first_two[1]
        size = len(key)
        # The first entry with each entry's key: setdefault keeps the
        # position it was first given.
        first = {}
        rep_of = np.fromiter(map(first.setdefault, key.tolist(), range(size)),
                             dtype=np.intp, count=size)
        if len(first) < size:
            reps = np.fromiter(first.values(), dtype=np.intp, count=len(first))
            if all(np.array_equal(res[:, rep_of], res) for res in self._residues):
                # Groups are numbered in the order of their first entries.
                group = np.cumsum(rep_of == np.arange(size)) - 1
                return group[rep_of], reps
        index = np.arange(size)
        return index, index


def _multimodular(rows, bound, step, det_bound=None):
    """The integer matrix with entries at most ``bound`` in absolute value,
    from the residues ``step`` computes; and the ops of ``step``, summed.
    ``step(a, primes)`` may overwrite a, the rows modulo a chunk of primes,
    and returns (c x r x m residues, whether each prime was usable, ops).
    Primes are taken until the usable ones' product passes 2 * bound +
    (bound >> 18), which the read of ``_Crt`` needs to be exact;
    ZeroDivisionError is raised once the unusable primes' product passes
    2 * det_bound + (det_bound >> 18), with det_bound = bound by default.
    """
    if det_bound is None:
        det_bound = bound
    bound = 2 * bound + (bound >> 18)
    det_bound = 2 * det_bound + (det_bound >> 18)
    residues = _Residues(rows)
    cap = max(1, _BUDGET // (len(rows) * len(rows[0])))
    crt = _Crt()
    used, ops, skipped = 0, 0, 1
    while crt.modulus <= bound:
        if skipped > det_bound:
            raise ZeroDivisionError("matrix is singular")
        primes = _next_primes(used, crt.modulus, bound, cap)
        used += len(primes)
        out, live, chunk_ops = step(residues.modulo(primes), primes)
        ops += chunk_ops
        skipped *= math.prod(q for q, ok in zip(primes, live) if not ok)
        crt.add([q for q, ok in zip(primes, live) if ok], out[live])
        # The chunk's arrays go before the next chunk's are made.
        del out
    return crt.symmetric(), ops


def _invert(a, primes):
    """In-place Gauss-Jordan inversion of the residues a (c x n x n int64,
    one slice per prime).

    Step k stores column k of the inverse in place of column k. With f the
    column and r the row of the pivot, r scaled by the inverse pivot and
    r_k = 1/pivot, both are cleared in a and every row i gains g_i r, where
    g_i = -f_i and g_k = 1: one rank-one update of the whole contiguous
    slice, n^2 multiply-mod updates per step and prime. Each product is
    below p**2, so a is reduced after every second update only: it stays
    below 2 p**2 < 2**63, and only the pivot's column and row are reduced
    when they are read after an unreduced update. A slice whose pivot
    vanishes swaps in the first row below with a nonzero entry; at the end
    its swaps are undone on its inverse's columns, in reverse order.
    A step reads its pivots as one vector, and only the primes where the
    pivot vanishes take the swap loop; det is kept as a vector too, negated
    as q - det on a swap. Only the inverse pivot is taken prime by prime,
    with ``pow``, which beats a vectorised Fermat inverse at these counts.
    Returns (det residues, an int64 vector; whether each prime had a pivot
    in every column, a bool vector; ops); then a[t] is M^-1 modulo
    primes[t]. A prime without a pivot in some column has det = 0 modulo
    it; its slice is carried on with a stand-in pivot and must be ignored.
    """
    c, n, _ = a.shape
    p1 = np.array(primes, dtype=np.int64)
    p2 = p1[:, None]
    p3 = p2[:, :, None]
    scratch = np.empty_like(a)
    det = np.ones(c, dtype=np.int64)
    live = np.ones(c, dtype=bool)
    swaps = []
    for k in range(n):
        piv = a[:, k, k] % p1
        if not piv.all():
            for t in np.flatnonzero(piv == 0).tolist():
                q = primes[t]
                below = np.flatnonzero(a[t, k:, k] % q)
                if below.size == 0:
                    live[t] = False
                    piv[t] = 1
                    continue
                r = k + int(below[0])
                a[t, [k, r]] = a[t, [r, k]]
                swaps.append((t, k, r))
                piv[t] = a[t, k, k] % q
                det[t] = q - det[t]
        det *= piv
        det %= p1
        inv = np.array([pow(x, -1, q) for x, q in zip(piv.tolist(), primes)],
                       dtype=np.int64)[:, None]
        col, row = a[:, :, k], a[:, k, :]
        if k % 2:
            col, row = col % p2, row % p2
        # g in (0, p], so each product g_i r_j is below p**2.
        g = p2 - col
        g[:, k] = 1
        row = row * inv % p2
        row[:, k] = inv[:, 0]
        a[:, :, k] = 0
        a[:, k, :] = 0
        np.multiply(g[:, :, None], row[:, None, :], out=scratch)
        a += scratch
        if k % 2 or k == n - 1:
            _mod(a, primes, p3, scratch)
    for t, k, r in reversed(swaps):
        a[t][:, [k, r]] = a[t][:, [r, k]]
    det[~live] = 0
    return det, live, c * n ** 3


def _det_step(a, primes):
    # det 0 modulo a prime without a pivot is still the det's residue.
    det, _, ops = _invert(a, primes)
    return det[:, None, None], [True] * len(primes), ops


def det_int(rows):
    """Determinant of a square integer matrix, from the in-place inversion.

    Returns (det, ops) where ops counts the multiply-mod updates of the
    inversion, n^3 per prime, summed over the primes; a singular matrix
    has det 0 modulo every prime, and det 0. The input is not mutated.
    """
    if not rows:
        return 1, 0
    values, ops = _multimodular(rows, hadamard_bound(rows), _det_step)
    return values[0][0], ops


def jordan_int(rows, denominator=None, bound=None):
    """Invert a square integer matrix M, given by its rows.

    Returns (d, X, ops) with M @ X == d I exactly, and ops the multiply-mod
    updates of the inversion, n^3 per prime, summed over the primes. M's
    residues are inverted in place and each prime's inverse is multiplied
    by d modulo the prime.

    By default d = det(M), nonzero and possibly negative, and X = adj(M):
    det(M) is rebuilt as one more column, and the primes run to the
    Hadamard bound H of M, which bounds det(M) and every cofactor: a
    cofactor is the determinant of M with one row and one column dropped,
    dropping a column only shortens the rows, and each factor of the bound
    is >= 1, so dropping a row's factor cannot raise it. The result is
    exact by the bound alone.

    Given a nonzero ``denominator`` d and a ``bound`` B, X = d M^-1 and the
    primes run to B instead (to 1 if B < 1), with no det column. The result is exact only
    if d M^-1 is an integer matrix with every entry at most B in absolute
    value; the kernel does not check that, and the caller must prove X,
    for instance by the exact residual M X = d I. A smaller bound on a
    smaller result takes fewer primes: the reduced inverse of a matrix with
    repeated eigenvalues is far smaller than its adjugate.

    Either way, primes dividing det(M) are skipped, and M is singular
    exactly when their product passes 2H + (H >> 18); then
    ZeroDivisionError is raised. The input is not mutated.
    """
    if (denominator is None) != (bound is None):
        raise ValueError("give both a denominator and a bound, or neither")
    if denominator == 0:
        raise ValueError("the denominator must be nonzero")
    if not rows:
        return (1 if denominator is None else denominator), [], 0
    n = len(rows)
    det_bound = hadamard_bound(rows)

    def adjugate_step(a, primes):
        det, live, ops = _invert(a, primes)
        out = np.empty((len(primes), n, n + 1), dtype=np.int64)
        out[:, :, n] = det[:, None]
        adj = out[:, :, :n]
        np.multiply(a, out[:, :, n:], out=adj)
        # a has been read, so it serves as the reduction's scratch.
        _mod(adj, primes, np.array(primes, dtype=np.int64)[:, None, None], a)
        return out, live, ops

    def scaled_step(a, primes):
        _, live, ops = _invert(a, primes)
        d = np.array([denominator % q for q in primes], dtype=np.int64)
        out = a * d[:, None, None]
        _mod(out, primes, np.array(primes, dtype=np.int64)[:, None, None], a)
        return out, live, ops

    if denominator is None:
        values, ops = _multimodular(rows, det_bound, adjugate_step)
        return values[0][n], [row[:n] for row in values], ops
    # d M^-1 is not 0, so no bound below 1 holds; 1 still takes a prime.
    values, ops = _multimodular(rows, max(bound, 1), scaled_step, det_bound)
    return denominator, values, ops


def charpoly_bound(rows):
    """prod_i (isqrt(|row_i|^2) + 2): a bound on the sum of the absolute
    values of the coefficients of det(xI - M).

    The coefficient of x^(n-k) is (-1)^k times the sum of the principal
    k x k minors, and Hadamard bounds each minor on the rows S by
    prod_{i in S} |row_i|; summed over every S that is prod_i (1 + |row_i|).
    Like every bound of ``_multimodular``, its primes run past
    2B + (B >> 18).
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
    primes are taken until their product passes twice ``charpoly_bound``
    and a little more (see ``_multimodular``).
    The input is not mutated.
    """
    if not rows:
        return [1], 0
    values, ops = _multimodular(rows, charpoly_bound(rows), _charpoly_step)
    return values[0], ops
