"""Differential tests: elimination det/inv/is_unit against Laplace expansion.

MatrixAlgebra computes determinants and inverses by exact elimination.
The references below are the memoised Laplace expansion and its adjugate,
the way both were computed before; they are exponential in n, so the
differential grids stop at n = 6, and larger sizes are checked by
multiplying back.
"""

import itertools
import random

import pytest

from sforge import (
    GF,
    Context,
    IdempotentFamily,
    MatrixAlgebra,
    NotInvertible,
    Zmod,
    random_element,
    random_word,
    st_eval,
)

GF4 = GF(2, [1, 1, 1])
GF9 = GF(3, [1, 0, 1])
GF25 = GF(5, [2, 0, 1])


def laplace_det(base, rows):
    """Determinant of a square list of rows by memoised Laplace expansion."""
    n = len(rows)
    memo = {}

    def rec(row, cols):
        if not cols:
            return base.one
        got = memo.get(cols)
        if got is not None:
            return got
        acc = base.zero
        for t, c in enumerate(cols):
            entry = rows[row][c]
            if entry != base.zero:
                term = base.mul(entry, rec(row + 1, cols[:t] + cols[t + 1:]))
                acc = base.add(acc, base.neg(term) if t % 2 else term)
        memo[cols] = acc
        return acc

    return rec(0, tuple(range(n)))


def adjugate_inverse(base, rows):
    """The inverse as adjugate / det, or None when det is not a unit."""
    n = len(rows)
    d = laplace_det(base, rows)
    if not base.is_unit(d):
        return None
    d_inv = base.inv(d)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j
            ]
            md = laplace_det(base, minor)
            if (i + j) % 2:
                md = base.neg(md)
            row.append(base.mul(d_inv, md))
        out.append(tuple(row))
    return tuple(out)


def agrees_with_oracle(A, a):
    assert A.det(a) == laplace_det(A.base, a)
    want = adjugate_inverse(A.base, a)
    assert A.is_unit(a) == (want is not None)
    if want is None:
        with pytest.raises(NotInvertible):
            A.inv(a)
    else:
        assert A.inv(a) == want
    return want is not None


def random_unit(A, rng, steps=12):
    """A unit built from row swaps and elementary row updates of 1."""
    base = A.base
    if A.n == 1:
        return ((rng.choice(base.units()),),)
    rows = [list(r) for r in A.one]
    for _ in range(steps):
        r, c = rng.sample(range(A.n), 2)
        if rng.random() < 0.3:
            rows[r], rows[c] = rows[c], rows[r]
        else:
            v = random_element(base, rng)
            rows[r] = [base.add(x, base.mul(v, y)) for x, y in zip(rows[r], rows[c])]
    return tuple(map(tuple, rows))


def random_matrices(A, rng):
    """Dense, sparse, singular and guaranteed-unit samples of A."""
    base = A.base
    n = A.n
    yield random_element(A, rng)
    sparse = [[base.zero] * n for _ in range(n)]
    for r, c in itertools.product(range(n), repeat=2):
        if rng.random() < 0.3:
            sparse[r][c] = random_element(base, rng)
    yield tuple(map(tuple, sparse))
    u = random_unit(A, rng)
    yield u
    if n > 1:
        # a row that is a multiple of another: singular over any base
        rows = [list(r) for r in random_element(A, rng)]
        v = random_element(base, rng)
        rows[n - 1] = [base.mul(v, x) for x in rows[0]]
        yield tuple(map(tuple, rows))
        # a unit times a matrix with a zero column
        z = [list(r) for r in random_element(A, rng)]
        col = rng.randrange(n)
        for r in z:
            r[col] = base.zero
        yield A.mul(u, tuple(map(tuple, z)))


@pytest.mark.parametrize(
    "base, n, order",
    [(Zmod(4), 2, 96), (Zmod(6), 2, 288), (GF4, 2, 180), (Zmod(2), 3, 168)],
    ids=["M2-Z4", "M2-Z6", "M2-GF4", "M3-Z2"],
)
def test_exhaustive_small_grids(base, n, order):
    A = MatrixAlgebra(base, n)
    assert sum(agrees_with_oracle(A, a) for a in A.elements()) == order


@pytest.mark.parametrize(
    "base",
    [Zmod(1), Zmod(8), Zmod(9), Zmod(12), Zmod(360), GF9, GF25],
    ids=["Z1", "Z8", "Z9", "Z12", "Z360", "GF9", "GF25"],
)
def test_random_matrices_up_to_five(base):
    rng = random.Random(7919)
    units = singular = 0
    for n in range(1, 6):
        A = MatrixAlgebra(base, n)
        for _ in range(8):
            for a in random_matrices(A, rng):
                if agrees_with_oracle(A, a):
                    units += 1
                else:
                    singular += 1
    assert units > 40
    assert singular > 30 or base == Zmod(1)


def test_nested_m3_over_m2_z4():
    """M(3, M(2, Z/4)) is refused; its flat form M(6, Z/4) agrees with the oracle."""
    with pytest.raises(ValueError, match="block family"):
        MatrixAlgebra(MatrixAlgebra(Zmod(4), 2), 3)
    A = MatrixAlgebra(Zmod(4), 6)
    rng = random.Random(104729)
    units = 0
    for _ in range(25):
        for a in random_matrices(A, rng):
            units += agrees_with_oracle(A, a)
    assert units >= 25


@pytest.mark.parametrize("base", [Zmod(360), GF9], ids=["Z360", "GF9"])
@pytest.mark.parametrize("n", [10, 12])
def test_large_units_multiply_back(base, n):
    A = MatrixAlgebra(base, n)
    rng = random.Random(n)
    found = 0
    while found < 3:
        a = random_element(A, rng)
        if not A.is_unit(a):
            continue
        found += 1
        b = A.inv(a)
        assert A.mul(a, b) == A.one == A.mul(b, a)
    rows = [list(r) for r in random_element(A, rng)]
    rows[-1] = [base.add(x, y) for x, y in zip(rows[0], rows[1])]
    a = tuple(map(tuple, rows))
    assert A.det(a) == base.zero
    assert not A.is_unit(a)
    with pytest.raises(NotInvertible):
        A.inv(a)


def corner_labels(fam):
    singles = list(fam.labels())
    tuples = [
        t for k in range(2, fam.n + 1) for t in itertools.combinations(singles, k)
    ]
    return singles + tuples


@pytest.mark.parametrize(
    "base, n, blocks",
    [
        (Zmod(4), 3, None),
        (Zmod(12), 4, None),
        (GF9, 3, None),
        (Zmod(4), 3, [[0, 1], [2]]),
        (Zmod(6), 3, [[0, 1], [2]]),
    ],
    ids=["M3-Z4-units", "M4-Z12-units", "M3-GF9-units", "M3-Z4-blocks", "M3-Z6-blocks"],
)
def test_corner_inverse_matches_full_inverse(base, n, blocks):
    A = MatrixAlgebra(base, n)
    fam = (
        IdempotentFamily.matrix_units(A)
        if blocks is None
        else IdempotentFamily(A, blocks)
    )
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for labels in corner_labels(fam):
        group = labels if isinstance(labels, tuple) else (labels,)
        e = A.zero
        for t in group:
            e = A.add(e, fam.idempotent(t))
        outside = A.sub(A.one, e)
        for _ in range(12):
            u = fam.project(random_element(A, rng), labels, labels)
            U = fam.to_matrix(u, labels, labels)
            full = A.add(U, outside)
            unit = A.is_unit(full)
            seen[unit] += 1
            if unit:
                v = fam.corner_inv(u, labels)
                assert v == fam.project(A.inv(full), labels, labels)
                V = fam.to_matrix(v, labels, labels)
                assert A.mul(U, V) == e == A.mul(V, U)
            else:
                with pytest.raises(NotInvertible):
                    fam.corner_inv(u, labels)
    assert seen[True] and (seen[False] or base == GF9)


@pytest.mark.parametrize(
    "base, n, blocks",
    [(Zmod(12), 4, None), (GF9, 4, None), (Zmod(4), 3, [[0, 1], [2]])],
    ids=["M4-Z12", "M4-GF9", "M3-Z4-blocks"],
)
def test_inverse_word_evaluates_to_inverse(base, n, blocks):
    A = MatrixAlgebra(base, n)
    fam = (
        IdempotentFamily.matrix_units(A)
        if blocks is None
        else IdempotentFamily(A, blocks)
    )
    ctx = Context(fam)
    rng = random.Random(2027)
    for length in (0, 1, 2, 5, 9):
        for _ in range(4):
            w = random_word(ctx, rng, length)
            assert st_eval(w.inverse()) == A.inv(st_eval(w))
