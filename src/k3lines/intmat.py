"""Exact linear algebra over the integers and rationals.

Matrices are dense lists of rows with arbitrary-precision ``int`` entries
(``Fraction`` entries are accepted by the generic helpers).  There is no
floating point anywhere in this package: square classes and discriminant
forms are exact objects and rounding would be unrecoverable.
"""

from __future__ import annotations

from fractions import Fraction

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
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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


def det_fraction(m) -> Fraction:
    """Determinant of a matrix with rational entries."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            out = -out
        out *= work[k][k]
        inv = 1 / work[k][k]
        for i in range(k + 1, n):
            if work[i][k] != 0:
                f = work[i][k] * inv
                for j in range(k, n):
                    work[i][j] -= f * work[k][j]
    return out


def solve_exact(a, b) -> list[Fraction]:
    """Solve a·x = b for square nonsingular a, exactly."""
    n = len(a)
    work = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
        inv = 1 / work[k][k]
        for i in range(n):
            if i != k and work[i][k] != 0:
                f = work[i][k] * inv
                for j in range(k, n + 1):
                    work[i][j] -= f * work[k][j]
    return [work[i][n] / work[i][i] for i in range(n)]


def smith_decompose(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form: returns (S, U, V) with U·m·V = S.

    S is diagonal with nonnegative entries d1 | d2 | ...; U and V are
    unimodular.  Pivoting is deterministic: the entry of smallest nonzero
    absolute value is chosen first, ties broken in row-major order, so the
    transforms are reproducible across runs.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = copy_mat(m)
    u = identity(rows)
    v = identity(cols)
    t = 0
    while t < min(rows, cols):
        pr = pc = -1
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                e = s[i][j]
                if e != 0 and (best == 0 or abs(e) < best):
                    best = abs(e)
                    pr, pc = i, j
        if pr < 0:
            break
        if pr != t:
            s[t], s[pr] = s[pr], s[t]
            u[t], u[pr] = u[pr], u[t]
        if pc != t:
            for row in s:
                row[t], row[pc] = row[pc], row[t]
            for row in v:
                row[t], row[pc] = row[pc], row[t]
        p = s[t][t]
        clean = True
        for i in range(t + 1, rows):
            if s[i][t] != 0:
                q = s[i][t] // p
                if q:
                    for j in range(cols):
                        s[i][j] -= q * s[t][j]
                    for j in range(rows):
                        u[i][j] -= q * u[t][j]
                if s[i][t] != 0:
                    clean = False
        for j in range(t + 1, cols):
            if s[t][j] != 0:
                q = s[t][j] // p
                if q:
                    for i in range(rows):
                        s[i][j] -= q * s[i][t]
                    for i in range(cols):
                        v[i][j] -= q * v[i][t]
                if s[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # The pivot row and column are clear.  Before accepting the pivot,
        # fold in any remaining entry it does not divide (the divisor chain
        # requires d_t | d_{t+1} | ...).
        carrier = -1
        for i in range(t + 1, rows):
            if any(s[i][j] % p != 0 for j in range(t + 1, cols)):
                carrier = i
                break
        if carrier >= 0:
            for j in range(cols):
                s[t][j] += s[carrier][j]
            for j in range(rows):
                u[t][j] += u[carrier][j]
            continue
        if p < 0:
            for j in range(cols):
                s[t][j] = -s[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1
    return s, u, v


def smith_diagonal(m: Mat) -> list[int]:
    s, _, _ = smith_decompose(m)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def matrix_rank(m: Mat) -> int:
    return sum(1 for d in smith_diagonal(m) if d != 0)


def integral_kernel_with_complement(m: Mat) -> tuple[list[Vec], list[Vec]]:
    """Kernel basis plus vectors completing it to a basis of Z^n.

    Both lists together are the columns of the unimodular Smith transform V,
    so stacking them yields a unimodular matrix.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s, _, v = smith_decompose(m)
    rank = sum(1 for t in range(min(rows, cols)) if s[t][t] != 0)
    kernel = [[v[i][j] for i in range(cols)] for j in range(rank, cols)]
    complement = [[v[i][j] for i in range(cols)] for j in range(rank)]
    return kernel, complement


def integral_kernel(m: Mat) -> list[Vec]:
    """Basis of {x in Z^n : m·x = 0}, saturated (the quotient by its span is
    torsion-free).  The basis consists of the trailing columns of the Smith
    transform V, so it is deterministic."""
    return integral_kernel_with_complement(m)[0]


def inverse_unimodular(m: Mat) -> Mat:
    """Exact inverse of a unimodular integer matrix."""
    s, u, v = smith_decompose(m)
    n = len(m)
    if any(s[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is not unimodular")
    return mat_mul(v, u)


def inertia(m) -> tuple[int, int, int]:
    """Counts of positive, negative, and zero eigenvalues of a symmetric
    matrix, computed exactly by rational congruence reduction.

    Zero diagonal pivots are handled by splitting off a 2x2 block with zero
    diagonal, which contributes one positive and one negative direction.
    """
    if not is_symmetric(m):
        raise ValueError("inertia requires a symmetric matrix")
    n = len(m)
    work = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]
    idx = list(range(n))
    pos = neg = zero = 0
    while idx:
        di = next((i for i in idx if work[i][i] != 0), None)
        if di is not None:
            d = work[di][di]
            if d > 0:
                pos += 1
            else:
                neg += 1
            rest = [i for i in idx if i != di]
            col = {a: work[a][di] for a in rest}
            for a in rest:
                if col[a] == 0:
                    continue
                f = col[a] / d
                for b in rest:
                    work[a][b] -= f * work[di][b]
            for a in rest:
                work[a][di] = Fraction(0)
                work[di][a] = Fraction(0)
            idx = rest
            continue
        pij = None
        for ai in range(len(idx)):
            for bi in range(ai + 1, len(idx)):
                if work[idx[ai]][idx[bi]] != 0:
                    pij = (idx[ai], idx[bi])
                    break
            if pij:
                break
        if pij is None:
            zero += len(idx)
            break
        i, j = pij
        bval = work[i][j]
        pos += 1
        neg += 1
        rest = [k for k in idx if k != i and k != j]
        ci = {a: work[a][i] for a in rest}
        cj = {a: work[a][j] for a in rest}
        for a in rest:
            for b in rest:
                work[a][b] -= (ci[a] * cj[b] + cj[a] * ci[b]) / bval
        idx = rest
    return pos, neg, zero


def positive_basis(m) -> list[list[Fraction]]:
    """Rational basis of a maximal positive definite subspace of a symmetric
    form, produced by the same congruence reduction as `inertia`."""
    if not is_symmetric(m):
        raise ValueError("positive_basis requires a symmetric matrix")
    n = len(m)
    gram = [[Fraction(m[i][j]) for j in range(n)] for i in range(n)]

    def pair(x, y):
        total = Fraction(0)
        for i in range(n):
            xi = x[i]
            if xi:
                row = gram[i]
                total += xi * sum(row[j] * y[j] for j in range(n) if y[j])
        return total

    active = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    found: list[list[Fraction]] = []
    while active:
        di = next((k for k, vv in enumerate(active) if pair(vv, vv) != 0), None)
        if di is not None:
            v = active.pop(di)
            nv = pair(v, v)
            if nv > 0:
                found.append(v)
            active = [
                [w[i] - (pair(w, v) / nv) * v[i] for i in range(n)] for w in active
            ]
            continue
        pij = None
        for a in range(len(active)):
            for b in range(a + 1, len(active)):
                if pair(active[a], active[b]) != 0:
                    pij = (a, b)
                    break
            if pij:
                break
        if pij is None:
            break
        a, b = pij
        va, vb = active[a], active[b]
        plus = [va[i] + vb[i] for i in range(n)]
        minus = [va[i] - vb[i] for i in range(n)]
        if pair(plus, plus) > 0:
            good, bad = plus, minus
        else:
            good, bad = minus, plus
        found.append(good)
        rest = [active[k] for k in range(len(active)) if k not in (a, b)]
        ng, nb = pair(good, good), pair(bad, bad)
        active = [
            [
                w[i] - (pair(w, good) / ng) * good[i] - (pair(w, bad) / nb) * bad[i]
                for i in range(n)
            ]
            for w in rest
        ]
    return found
