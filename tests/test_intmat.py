import random
from fractions import Fraction
from itertools import permutations

import pytest

from k3lines.intmat import (
    block_diag,
    det,
    det_fraction,
    identity,
    inertia,
    integral_kernel,
    integral_kernel_with_complement,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    matrix_rank,
    positive_basis,
    smith_decompose,
    smith_diagonal,
    solve_exact,
    transpose,
)


def random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def random_unimodular(rng, n, steps=12):
    m = identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def perm_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def k33_with_section_gram():
    # Six lines forming K(3,3) plus the degree-6 section class: lines square
    # to -2, meet the section once, and meet opposite-part lines once.
    g = [[0] * 7 for _ in range(7)]
    for i in range(6):
        g[i][i] = -2
        g[i][6] = g[6][i] = 1
    for i in range(3):
        for j in range(3, 6):
            g[i][j] = g[j][i] = 1
    g[6][6] = 6
    return g


def test_smith_frozen_examples():
    s, u, v = smith_decompose([[0, 1], [1, 0]])
    assert [s[0][0], s[1][1]] == [1, 1]
    s, u, v = smith_decompose([[2, 0], [0, 3]])
    assert [s[0][0], s[1][1]] == [1, 6]
    m = [[-6, 3], [3, -6]]
    s, u, v = smith_decompose(m)
    assert [s[0][0], s[1][1]] == [3, 9]
    assert mat_mul(mat_mul(u, m), v) == s


def test_smith_properties_random():
    rng = random.Random(20260818)
    for _ in range(120):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = random_matrix(rng, rows, cols)
        s, u, v = smith_decompose(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d != 0]
        assert diag[: len(nz)] == nz, "zero divisors must come last"
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_kernel_frozen_examples():
    assert integral_kernel(identity(3)) == []
    ker = integral_kernel([[1, 1], [1, 1]])
    assert len(ker) == 1
    assert ker[0] in ([1, -1], [-1, 1])
    ker = integral_kernel(k33_with_section_gram())
    assert len(ker) == 1
    expected = [1, 1, 1, 1, 1, 1, -1]
    assert ker[0] in (expected, [-x for x in expected])


def test_kernel_saturation_random():
    rng = random.Random(77003)
    for _ in range(100):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = random_matrix(rng, rows, cols, bound=9)
        kernel, complement = integral_kernel_with_complement(m)
        for x in kernel:
            assert mat_vec(m, x) == [0] * rows
        assert len(kernel) + len(complement) == cols
        assert matrix_rank(m) == len(complement)
        stacked = transpose(complement + kernel)
        assert abs(det(stacked)) == 1
        if kernel:
            assert all(d == 1 for d in smith_diagonal(transpose(kernel)))


def test_inertia_frozen_examples():
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[8, 4], [4, 8]]) == (2, 0, 0)
    assert inertia(k33_with_section_gram()) == (1, 5, 1)
    with pytest.raises(ValueError):
        inertia([[0, 1], [2, 0]])


def test_inertia_constructed_signatures():
    rng = random.Random(424242)
    for _ in range(80):
        n = rng.randint(1, 6)
        signs = [rng.choice([1, -1, 0]) for _ in range(n)]
        p = random_unimodular(rng, n)
        d = [[signs[i] * rng.randint(1, 5) if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            if signs[i] == 0:
                d[i][i] = 0
        g = mat_mul(mat_mul(transpose(p), d), p)
        expect = (
            sum(1 for x in signs if x > 0),
            sum(1 for x in signs if x < 0),
            sum(1 for x in signs if x == 0),
        )
        assert inertia(g) == expect


def test_inertia_against_leading_minors_definite():
    rng = random.Random(9090)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = random_matrix(rng, n, n, bound=4)
        while det(p) == 0:
            p = random_matrix(rng, n, n, bound=4)
        g = mat_mul(transpose(p), p)
        minors = [det([row[: k + 1] for row in g[: k + 1]]) for k in range(n)]
        assert all(m > 0 for m in minors)
        assert inertia(g) == (n, 0, 0)
        neg = [[-x for x in row] for row in g]
        minors = [det([row[: k + 1] for row in neg[: k + 1]]) for k in range(n)]
        assert all(m * (-1) ** (k + 1) > 0 for k, m in enumerate(minors))
        assert inertia(neg) == (0, n, 0)


def test_positive_basis_spans_positive_part():
    rng = random.Random(515151)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, bound=6)
        g = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        pos, _, _ = inertia(g)
        basis = positive_basis(g)
        assert len(basis) == pos
        for a in range(len(basis)):
            va = basis[a]
            norm = sum(va[i] * g[i][j] * va[j] for i in range(n) for j in range(n))
            assert norm > 0
            for b in range(a + 1, len(basis)):
                vb = basis[b]
                cross = sum(va[i] * g[i][j] * vb[j] for i in range(n) for j in range(n))
                assert cross == 0


def test_det_matches_permutation_expansion():
    rng = random.Random(606060)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, bound=7)
        assert det(m) == perm_det(m)
        assert det_fraction(m) == Fraction(perm_det(m))


def test_inverse_unimodular():
    rng = random.Random(717171)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n)
        assert mat_mul(m, inverse_unimodular(m)) == identity(n)
    with pytest.raises(ValueError):
        inverse_unimodular([[2, 0], [0, 1]])


def test_solve_exact_roundtrip():
    rng = random.Random(828282)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, bound=8)
        while det(a) == 0:
            a = random_matrix(rng, n, n, bound=8)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        b = [sum(Fraction(a[i][j]) * x[j] for j in range(n)) for i in range(n)]
        assert solve_exact(a, b) == x


def test_block_diag():
    assert block_diag([[1]], [[2, 3], [4, 5]]) == [
        [1, 0, 0],
        [0, 2, 3],
        [0, 4, 5],
    ]
