"""Exact linear algebra over the integers and rationals.

Matrices are dense lists of rows with arbitrary-precision ``int`` entries
(``Fraction`` entries are accepted by the generic helpers).  There is no
floating point anywhere in this package: square classes and discriminant
forms are exact objects and rounding would be unrecoverable.
"""

from __future__ import annotations

from math import gcd
from operator import mul

Mat = list[list[int]]
Vec = list[int]


def zeros(rows: int, cols: int) -> Mat:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_mat(m) -> Mat:
    return [list(row) for row in m]


def transpose(m) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    """a·b, adding x·(row k of b) only for the nonzero entries x of a."""
    if not a or not b:
        return []
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def block_diag(*blocks) -> Mat:
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    at = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[at + i][at + j] = b[i][j]
        at += k
    return out


def is_symmetric(m) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i))


def det(m: Mat) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    work = copy_mat(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // prev
            work[i][k] = 0
        prev = work[k][k]
    return sign * work[n - 1][n - 1]


def smith_decompose(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form: returns (S, U, V) with U·m·V = S.

    S is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular.  Pivoting is deterministic: the entry of smallest nonzero
    absolute value is chosen first, ties broken in row-major order, so the
    transforms are reproducible across runs.
    """
    return _smith(m, want_u=True)


def _smith(m: Mat, want_u: bool) -> tuple[Mat, Mat | None, Mat]:
    """`smith_decompose`, with U None (its rows kept empty) unless `want_u`.
    The pivot scan stops at the first unit; a column operation touches only
    the rows with a nonzero entry in the pivot column, the rows it changes."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = copy_mat(m)
    u = identity(rows) if want_u else [[] for _ in range(rows)]
    v = identity(cols)
    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j, e in enumerate(s[i][t:], t):
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pr, pc = best
        s[t], s[pr], u[t], u[pr] = s[pr], s[t], u[pr], u[t]
        for row in s + v:
            row[t], row[pc] = row[pc], row[t]
        p = s[t][t]
        clean = True
        for i in range(t + 1, rows):
            q = s[i][t] // p
            if q:
                s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            clean = clean and not s[i][t]
        pivot_rows = [row for row in s + v if row[t]]
        for j in range(t + 1, cols):
            q = s[t][j] // p
            if q:
                for row in pivot_rows:
                    row[j] -= q * row[t]
            clean = clean and not s[t][j]
        if not clean:
            continue
        # The pivot row and column are clear.  Before accepting the pivot,
        # fold in any remaining entry it does not divide (the divisor chain
        # requires d_t | d_{t+1} | ...); a unit divides every entry.
        carrier = None if abs(p) == 1 else next(
            (i for i in range(t + 1, rows) if any(x % p for x in s[i][t + 1 :])),
            None,
        )
        if carrier is not None:
            s[t] = [x + y for x, y in zip(s[t], s[carrier])]
            u[t] = [x + y for x, y in zip(u[t], u[carrier])]
            continue
        if p < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return s, (u if want_u else None), v


def integral_kernel(m: Mat) -> list[Vec]:
    """Basis of {x in Z^n : m·x = 0}, saturated (the quotient by its span is
    torsion-free).  The basis consists of the trailing columns of the Smith
    transform V, so it is deterministic."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s, _, v = _smith(m, want_u=False)
    rank = sum(1 for t in range(min(rows, cols)) if s[t][t] != 0)
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


def inverse_unimodular(m: Mat) -> Mat:
    """Exact inverse of a unimodular integer matrix."""
    s, u, v = smith_decompose(m)
    n = len(m)
    if any(s[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return mat_mul(v, u)


def inertia(m) -> tuple[int, int, int]:
    """Counts of positive, negative, and zero eigenvalues of a symmetric
    integer matrix, computed exactly by congruence reduction."""
    return leading_rank_and_inertia(m, 0)[1]


def leading_rank_and_inertia(m, k: int) -> tuple[int, tuple[int, int, int]]:
    """The rank of the leading k x k block of a symmetric integer matrix and
    the `inertia` of the whole, from one congruence reduction that exhausts
    that block before it touches a later row."""
    norms, rank = _diagonal_basis(m, lead=k)
    return rank, (
        sum(d > 0 for d in norms),
        sum(d < 0 for d in norms),
        sum(d == 0 for d in norms),
    )


def _diagonal_basis(m, lead: int = 0):
    """The norms, each up to a positive factor, of a basis of Q^n
    orthogonal for the symmetric integer form m, by fraction-free
    congruence reduction.

    A vector e_k of nonzero norm d is split off, and every other vector e_a
    is replaced by |d|·e_a - sign(d)·g_ak·e_k, which is orthogonal to it.
    The Gram block of the remaining vectors is then |d| times the integer
    block |d|·g_ab - sign(d)·g_ak·g_bk; only that second factor is kept,
    divided further by its positive content.  So the kept block is always a
    positive multiple of the true Gram matrix of the remaining vectors:
    every norm has the sign of the true one, and the entries stay as small
    as the minors that fraction-free elimination divides out.  When every
    remaining vector is isotropic, one of a pair x, y with x·y != 0 is
    replaced by x + y, of norm 2 x·y.  The vectors left when no pair pairs
    span the radical, and each counts as norm 0.  Only the block is kept,
    not the vectors.

    Pivots and pairs are taken among the first `lead` rows while their
    block is nonzero, so those vectors stay in the span of e_0..e_{lead-1}
    and the pivots split off before that block is exhausted count its rank.
    Returns (norms, that rank)."""
    if not is_symmetric(m):
        raise ValueError("congruence reduction requires a symmetric matrix")
    # The remaining block; a split-off vector's row and column are removed.
    # The first `head` remaining rows are those of the leading block.
    gram = copy_mat(m)
    norms = []
    head = rank = lead
    while gram:
        scope = head or len(gram)
        k = next((i for i in range(scope) if gram[i][i]), None)
        if k is None:
            nonzero = (
                (i, j)
                for i, row in enumerate(gram[:scope])
                for j, x in enumerate(row[:scope])
                if x
            )
            pair = next(nonzero, None)
            if pair is None:
                if head:  # the leading block is exhausted
                    rank, head = rank - head, 0
                    continue
                return norms + [0] * len(gram), rank
            i, j = pair
            for row in gram:
                row[i] += row[j]
            gram[i] = [x + y for x, y in zip(gram[i], gram[j])]
            continue
        krow = gram.pop(k)
        d = krow.pop(k)
        norms.append(d)
        if head:  # k < scope = head: a row of the leading block
            head -= 1
        scale, sign = abs(d), (1 if d > 0 else -1)
        for a, row in enumerate(gram):
            f = sign * row.pop(k)
            gram[a] = [scale * x - f * y for x, y in zip(row, krow)]
        content = 0
        for row in gram:
            content = gcd(content, *row)
            if content == 1:
                break
        if content > 1:
            gram = [[x // content for x in row] for row in gram]
    return norms, rank
