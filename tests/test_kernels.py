"""Differential tests: the block-value letter kernels against dense matrix products.

A letter carries the block values of its payload, and st_eval and
u_normal_form update only the columns (rows) a letter can touch.  The
references below put each payload back into its n x n matrix and
evaluate the same words with full products in the matrix algebra, the
way words were evaluated before the kernels.
"""

import itertools
import random

import pytest

from sforge import (
    GF,
    Context,
    DiagonalElement,
    IdempotentFamily,
    Letter,
    MatrixAlgebra,
    NotUnipotentSupport,
    Word,
    Zmod,
    diag_act,
    random_word,
    st_eval,
    u_normal_form,
)
from sforge.words import _position_order, support_sign

SCALES = (0, 2, 3)


def dense(fam, L):
    """The n x n matrix of a letter's payload."""
    return fam.to_matrix(L.a, L.i, L.j)


def dense_st(w):
    """st(w) by full products: m(1 + a) per letter, or the homotope fold."""
    fam = w.context.family
    alg = fam.algebra
    s = w.context.scale
    if s is None:
        m = alg.one
        for L in w.letters:
            m = alg.mul(m, alg.add(alg.one, dense(fam, L)))
        return m
    acc = alg.zero
    for L in w.letters:
        a = dense(fam, L)
        acc = alg.add(alg.scalar_mul(s, alg.mul(acc, a)), alg.add(acc, a))
    return acc


def dense_normal_form(w, sign):
    """u_normal_form with the residual peeled as (1 - a) * residual."""
    fam = w.context.family
    alg = fam.algebra
    residual = dense_st(w)
    out = []
    for i, j in _position_order(fam, sign):
        a = fam.to_matrix(fam.project(residual, i, j), i, j)
        if a != alg.zero:
            out.append(Letter(i, j, fam.project(a, i, j)))
            residual = alg.mul(alg.sub(alg.one, a), residual)
    assert residual == alg.one
    return Word(w.context, tuple(out))


def scalar(ring, k):
    """The scale numbered k: k mod m in Z/m; over GF(p^d), the polynomial
    whose coefficients are the base-p digits of k."""
    if isinstance(ring, GF):
        return ring.element([(k // ring.p ** e) % ring.p for e in range(ring.deg)])
    return ring.element(k)


def dense_inverse_letters(w):
    """The letters of w^-1: reversed, each payload matrix negated."""
    fam = w.context.family
    alg = fam.algebra
    return tuple(
        Letter(L.i, L.j, fam.project(alg.neg(dense(fam, L)), L.i, L.j))
        for L in reversed(w.letters)
    )


def assert_kernels_match(fam, w):
    alg = fam.algebra
    plain = Word(Context(fam), w.letters)
    assert st_eval(plain) == dense_st(plain)
    assert plain.inverse().letters == dense_inverse_letters(plain)
    for k in SCALES:
        ctx = Context(fam, scale=scalar(alg.base, k))
        scaled = Word(ctx, w.letters)
        assert st_eval(scaled) == dense_st(scaled)
    sign = support_sign(plain)
    if sign is None:
        with pytest.raises(NotUnipotentSupport):
            u_normal_form(plain)
    else:
        assert u_normal_form(plain) == dense_normal_form(plain, sign)


def all_letters(fam):
    return [
        Letter(i, j, a)
        for i in fam.labels()
        for j in fam.labels()
        if i != j
        for a in fam.component_elements(i, j)
    ]


M2Z4 = IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 2))
M2GF4 = IdempotentFamily.matrix_units(MatrixAlgebra(GF(2, [1, 1, 1]), 2))
M3Z2_BLOCKS = IdempotentFamily(MatrixAlgebra(Zmod(2), 3), [[0, 1], [2]])


@pytest.mark.parametrize("fam", [M2Z4, M2GF4, M3Z2_BLOCKS], ids=["M2Z4", "M2GF4", "M3Z2-blocks"])
def test_every_short_word_matches_dense(fam):
    letters = all_letters(fam)
    ctx = Context(fam)
    for L in letters:
        assert_kernels_match(fam, Word(ctx, (L,)))
    for pair in itertools.product(letters, repeat=2):
        assert_kernels_match(fam, Word(ctx, pair))


@pytest.mark.parametrize(
    "fam",
    [
        IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(12), 4)),
        # M(3, M(2, Z/4)), written as M(6, Z/4) with three 2 x 2 blocks
        IdempotentFamily(MatrixAlgebra(Zmod(4), 6), [[0, 1], [2, 3], [4, 5]]),
    ],
    ids=["M4Z12", "M3-M2Z4"],
)
def test_random_eight_letter_words_match_dense(fam):
    ctx = Context(fam)
    rng = random.Random(104729)
    for _ in range(30):
        assert_kernels_match(fam, random_word(ctx, rng, 8))
        sign = rng.choice((1, -1))
        assert_kernels_match(fam, random_word(ctx, rng, 8, sign=sign))


def test_projection_reads_the_cached_cells():
    fam = M3Z2_BLOCKS
    alg = fam.algebra
    def cut(m, i, j):
        return fam.to_matrix(fam.project(m, i, j), i, j)

    for m in itertools.islice(alg.elements(), 0, None, 7):
        assert cut(m, (1, 2), (2,)) == alg.add(cut(m, 1, 2), cut(m, 2, 2))


@pytest.mark.parametrize("fam", [M2GF4, IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(12), 4))])
def test_words_never_fall_back_to_matrix_products(fam, monkeypatch):
    ctx = Context(fam)
    rng = random.Random(7)
    upper = random_word(ctx, rng, 6, sign=1)
    mixed = random_word(ctx, rng, 6)
    expected = [st_eval(mixed), u_normal_form(upper)]
    scaled = Word(Context(fam, scale=scalar(fam.algebra.base, 2)), mixed.letters)
    expected.append(st_eval(scaled))

    def refuse(*args):
        raise AssertionError("dense matrix arithmetic on the word path")

    monkeypatch.setattr(MatrixAlgebra, "mul", refuse)
    monkeypatch.setattr(MatrixAlgebra, "add", refuse)
    assert [st_eval(mixed), u_normal_form(upper), st_eval(scaled)] == expected


def corner_unit_diagonals(fam):
    """Every diagonal element, found by the dense unit test: u in R_tt is
    a corner unit exactly when u + (1 - e_t) is invertible."""
    alg = fam.algebra
    per_corner = []
    for t in fam.labels():
        outside = alg.sub(alg.one, fam.idempotent(t))
        units = []
        for u in fam.component_elements(t, t):
            U = fam.to_matrix(u, t, t)
            if alg.is_unit(alg.add(U, outside)):
                units.append(u)
        per_corner.append(units)
    return [DiagonalElement(fam, comps) for comps in itertools.product(*per_corner)]


GRIDS = {
    "M3-Z4-units": IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(4), 3)),
    "M3-GF4-units": IdempotentFamily.matrix_units(MatrixAlgebra(GF(2, [1, 1, 1]), 3)),
    "M3-Z2-[[0,1],[2]]": M3Z2_BLOCKS,
    # two 2 x 2 blocks: four cells per payload, so their order matters
    "M4-Z2-[[0,1],[2,3]]": IdempotentFamily(MatrixAlgebra(Zmod(2), 4), [[0, 1], [2, 3]]),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_block_kernels_match_dense_reference(name):
    """Every block-value kernel against the dense n x n reference, on
    exhaustive grids: plain and homotope st_eval, Word.inverse and
    u_normal_form on every word of one or two letters, diag_act on every
    letter under every diagonal element, and the block product behind the
    (St3) right side on every pair of components."""
    fam = GRIDS[name]
    alg = fam.algebra
    ctx = Context(fam)
    letters = all_letters(fam)
    for L in letters:
        assert_kernels_match(fam, Word(ctx, (L,)))
    for pair in itertools.product(letters, repeat=2):
        assert_kernels_match(fam, Word(ctx, pair))

    diagonals = corner_unit_diagonals(fam)
    assert diagonals
    for d in diagonals:
        g = d.embed()
        g_inv = alg.inv(g)
        for L in letters:
            conj = alg.mul(g, alg.mul(dense(fam, L), g_inv))
            want = Letter(L.i, L.j, fam.project(conj, L.i, L.j))
            assert fam.to_matrix(want.a, L.i, L.j) == conj
            assert diag_act(d, Word(ctx, (L,))).letters == (want,)

    labels = list(fam.labels())
    for i, j, k in itertools.product(labels, repeat=3):
        for a in fam.component_elements(i, j):
            A = fam.to_matrix(a, i, j)
            for b in fam.component_elements(j, k):
                ab = alg.mul(A, fam.to_matrix(b, j, k))
                assert fam.block_mul(a, i, j, b, k) == fam.project(ab, i, k)


KERNEL_GRIDS = ("M3-Z4-units", "M3-GF4-units", "M4-Z2-[[0,1],[2,3]]")


def dense_step(fam, m, L, s):
    """m (1 + a) multiplied out, or the homotope step s*m*a + m + a."""
    alg = fam.algebra
    a = dense(fam, L)
    if s is None:
        return alg.mul(m, alg.add(alg.one, a))
    return alg.add(alg.scalar_mul(s, alg.mul(m, a)), alg.add(m, a))


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_column_kernel_matches_dense_reference(name):
    """MatrixAlgebra.add_column_multiples against multiplying out 1 + a:
    every one- and two-letter word, plain and at three homotope scales,
    from the identity, from zero and from random start matrices.  Z/m
    rings take the kernel's Z/m branch, GF(4) its generic one."""
    fam = GRIDS[name]
    alg = fam.algebra
    assert (alg._mod is None) == isinstance(alg.base, GF)
    rng = random.Random(name)
    starts = [alg.one, alg.zero] + [
        tuple(tuple(rng.choice(list(alg.base.elements())) for _ in range(alg.n)) for _ in range(alg.n))
        for _ in range(2)
    ]
    scales = [None] + [scalar(alg.base, k) for k in SCALES]
    letters = all_letters(fam)
    words = [(L,) for L in letters] + list(itertools.product(letters, repeat=2))
    for s in scales:
        for m in starts:
            for w in words:
                cols = list(zip(*m))
                want = m
                for L in w:
                    alg.add_column_multiples(cols, fam.cells(L.i, L.j), L.a, s)
                    want = dense_step(fam, want, L, s)
                assert tuple(zip(*cols)) == want
    # a zero letter leaves every column as it was: zero values are skipped
    cols = list(alg.one)
    zero_letter = next(L for L in letters if fam.is_zero(L.a))
    alg.add_column_multiples(cols, fam.cells(zero_letter.i, zero_letter.j), zero_letter.a, scales[-1])
    assert all(col is row for col, row in zip(cols, alg.one))


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_column_kernel_never_changes_a_column_in_place(name):
    """add_column_multiples replaces each column it updates and changes
    no column list in place, so folding letters onto a shallow copy of a
    buffer leaves the buffer's own column lists as they were: the relation
    grid shares the columns of st(x) across every second payload on that
    guarantee.  Z/m rings take the kernel's Z/m branch, GF(4) its generic
    one, plain and at three homotope scales."""
    fam = GRIDS[name]
    alg = fam.algebra
    rng = random.Random(name)
    elements = list(alg.base.elements())
    letters = [L for L in all_letters(fam) if not fam.is_zero(L.a)]
    for s in [None] + [scalar(alg.base, k) for k in SCALES]:
        for L in letters:
            cols = [[rng.choice(elements) for _ in range(alg.n)] for _ in range(alg.n)]
            objects = list(cols)
            values = [list(c) for c in cols]
            buf = cols[:]
            alg.add_column_multiples(buf, fam.cells(L.i, L.j), L.a, s)
            assert all(c is o for c, o in zip(cols, objects))
            assert cols == values
            touched = {c for (_, c), v in zip(fam.cells(L.i, L.j), L.a) if v != alg.base.zero}
            assert all((buf[c] is cols[c]) == (c not in touched) for c in range(alg.n))
