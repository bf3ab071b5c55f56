import random
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3lines.configio import MAX_LINES
from k3lines.fano import Analysis, LineConfiguration
from k3lines.intmat import (
    block_diag,
    det,
    identity,
    inertia,
    integral_kernel,
    inverse_unimodular,
    leading_rank_and_inertia,
    mat_mul,
    mat_vec,
    smith_decompose,
    transpose,
)
from k3lines.multigraph import Multigraph

from helpers import fraction_diagonal_basis, matrix_rank


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
        kernel = integral_kernel(m)
        for x in kernel:
            assert mat_vec(m, x) == [0] * rows
        assert len(kernel) == cols - matrix_rank(m)
        if kernel:
            s, _, _ = smith_decompose(transpose(kernel))
            assert all(s[i][i] == 1 for i in range(len(kernel)))


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


U_PLUS_U = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    entries = st.integers(min_value=-6, max_value=6)
    shape = draw(st.sampled_from(["any", "zero diagonal", "congruent"]))
    if shape == "congruent":
        # P^T D P: singular whenever D has a zero entry or P is singular
        p = [[draw(entries) for _ in range(n)] for _ in range(n)]
        d = [
            [draw(entries) if i == j else 0 for j in range(n)]
            for i in range(n)
        ]
        return mat_mul(mat_mul(transpose(p), d), p)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or shape != "zero diagonal":
                m[i][j] = m[j][i] = draw(entries)
    return m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(symmetric_matrices())
@example(U_PLUS_U)
@example(block_diag(U_PLUS_U, [[0]]))
@example([[0, 0], [0, 0]])
def test_integer_reduction_matches_the_fraction_oracle(m):
    expected = fraction_diagonal_basis(m)
    norms = [d for _, d in expected]
    assert inertia(m) == (
        sum(d > 0 for d in norms),
        sum(d < 0 for d in norms),
        sum(d == 0 for d in norms),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(symmetric_matrices(), st.integers(min_value=0, max_value=7))
@example(U_PLUS_U, 2)
@example(block_diag([[0, 0], [0, 0]], [[2]]), 2)
@example([[0, 1, 1], [1, 0, 1], [1, 1, 2]], 2)
def test_leading_rank_matches_the_smith_form_of_the_block(m, k):
    k = min(k, len(m))
    block = [row[:k] for row in m[:k]]
    rank = matrix_rank(block) if k else 0
    assert leading_rank_and_inertia(m, k) == (rank, inertia(m))


def test_inertia_of_the_largest_edgeless_gram_within_budget():
    # the 201 x 201 Gram matrix of the generators that `Analysis.warnings`
    # reduces for the edgeless configuration at the line limit: 8.8 s in
    # Fraction arithmetic, 0.35 s fraction-free on a 2-core host
    cfg = LineConfiguration(4, Multigraph.from_edges(MAX_LINES, []))
    gram = [list(row) for row in Analysis(cfg).gram]
    start = time.process_time()
    assert inertia(gram) == (1, MAX_LINES, 0)
    assert time.process_time() - start < 3.0


def test_det_matches_permutation_expansion():
    rng = random.Random(606060)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, bound=7)
        assert det(m) == perm_det(m)


def test_inverse_unimodular():
    rng = random.Random(717171)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n)
        assert mat_mul(m, inverse_unimodular(m)) == identity(n)
    with pytest.raises(ValueError):
        inverse_unimodular([[2, 0], [0, 1]])


def test_block_diag():
    assert block_diag([[1]], [[2, 3], [4, 5]]) == [
        [1, 0, 0],
        [0, 2, 3],
        [0, 4, 5],
    ]


# -- the dense routines the sparse ones replaced, as oracles ------------------


def dense_mat_mul(a, b):
    if not a or not b:
        return []
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dense_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dense_smith(m):
    """Smith normal form with every row and column operation on the whole
    of S, U and V, and a full scan for the least pivot."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = [list(row) for row in m]
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


@st.composite
def shaped_matrices(draw, rows=None, cols=None, entries=None):
    """Matrices of 0 to 9 rows and columns (no columns when there are no
    rows), some rows and columns zero, rows scaled by 2, 4 or 6."""
    rows = draw(st.integers(0, 9)) if rows is None else rows
    cols = (draw(st.integers(0, 9)) if rows else 0) if cols is None else cols
    if entries is None:
        entries = st.integers(-5, 5)
    zero_rows = draw(st.sets(st.integers(0, 8), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, 8), max_size=3))
    out = []
    for i in range(rows):
        scale = draw(st.sampled_from((1, 1, 2, 4, 6)))
        row = draw(st.lists(entries, min_size=cols, max_size=cols))
        out.append([
            0 if i in zero_rows or j in zero_cols else scale * x
            for j, x in enumerate(row)
        ])
    return out


@settings(derandomize=True, max_examples=400, deadline=None)
@given(shaped_matrices())
@example([])
@example([[], []])
@example([[0, 0], [0, 0]])
@example([[2, 4], [4, 6]])
def test_smith_matches_the_dense_routine(m):
    s, u, v = dense_smith(m)
    assert smith_decompose(m) == (s, u, v)
    cols = len(m[0]) if m else 0
    rank = sum(1 for t in range(min(len(m), cols)) if s[t][t])
    columns = [[v[i][j] for i in range(cols)] for j in range(cols)]
    assert integral_kernel(m) == columns[rank:]


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
       st.booleans(), st.data())
def test_products_match_the_dense_routines(rows, inner, cols, exact, data):
    entries = fractions if exact else st.integers(-5, 5)
    a = data.draw(shaped_matrices(rows, inner if rows else 0, entries))
    b = data.draw(shaped_matrices(inner, cols if inner else 0, entries))
    assert mat_mul(a, b) == dense_mat_mul(a, b)
    vec = data.draw(st.lists(entries, min_size=inner, max_size=inner))
    assert mat_vec(a, vec) == dense_mat_vec(a, vec)


def test_largest_edgeless_discriminant_form_within_budget():
    # D_N and the warnings for the edgeless configuration at the line
    # limit: one Smith form and one congruence reduction of the 201 x 201
    # Gram matrix of the generators, about 1.1 s on a 2-core host
    cfg = LineConfiguration(4, Multigraph.from_edges(MAX_LINES, []))
    analysis = Analysis(cfg)
    start = time.process_time()
    assert analysis.dn.orders == (2,) * (MAX_LINES - 2) + (416,)
    assert analysis.warnings == (
        f"line lattice rank {MAX_LINES + 1} exceeds 20; no polarized K3 "
        "surface realizes this configuration",
    )
    assert time.process_time() - start < 3.0
