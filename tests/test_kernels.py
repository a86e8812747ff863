"""Differential tests: the sparse letter kernels against dense matrix products.

st_eval and u_normal_form update only the columns (rows) a letter can
touch.  The references below evaluate the same words with full products
in the matrix algebra, the way words were evaluated before the kernels.
"""

import itertools
import random

import pytest

from sforge import (
    GF,
    Context,
    IdempotentFamily,
    Letter,
    MatrixAlgebra,
    NotUnipotentSupport,
    Word,
    Zmod,
    random_word,
    st_eval,
    u_normal_form,
)
from sforge.words import _position_order, support_sign

SCALES = (0, 2, 3)


def dense_st(w):
    """st(w) by full products: m(1 + a) per letter, or the homotope fold."""
    alg = w.context.algebra
    s = w.context.scale
    if s is None:
        m = alg.one
        for L in w.letters:
            m = alg.mul(m, alg.add(alg.one, L.a))
        return m
    acc = alg.zero
    for L in w.letters:
        acc = alg.add(alg.scalar_mul(s, alg.mul(acc, L.a)), alg.add(acc, L.a))
    return acc


def dense_normal_form(w, sign):
    """u_normal_form with the residual peeled as (1 - a) * residual."""
    fam = w.context.family
    alg = fam.algebra
    residual = dense_st(w)
    out = []
    for i, j in _position_order(fam, sign):
        a = fam.project(residual, i, j)
        if a != alg.zero:
            out.append(Letter(i, j, a))
            residual = alg.mul(alg.sub(alg.one, a), residual)
    assert residual == alg.one
    return Word(w.context, tuple(out))


def scalar(ring, k):
    """The scale numbered k: k mod m in Z/m; over GF(p^d), the polynomial
    whose coefficients are the base-p digits of k."""
    if isinstance(ring, GF):
        return ring.element([(k // ring.p ** e) % ring.p for e in range(ring.deg)])
    return ring.element(k)


def assert_kernels_match(fam, w):
    alg = fam.algebra
    plain = Word(Context(fam), w.letters)
    assert st_eval(plain) == dense_st(plain)
    for k in SCALES:
        ctx = Context(fam, scale=scalar(alg.scalar_ring, k))
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
    "alg",
    [MatrixAlgebra(Zmod(12), 4), MatrixAlgebra(MatrixAlgebra(Zmod(4), 2), 3)],
    ids=["M4Z12", "M3-M2Z4"],
)
def test_random_eight_letter_words_match_dense(alg):
    fam = IdempotentFamily.matrix_units(alg)
    ctx = Context(fam)
    rng = random.Random(104729)
    for _ in range(30):
        assert_kernels_match(fam, random_word(ctx, rng, 8))
        sign = rng.choice((1, -1))
        assert_kernels_match(fam, random_word(ctx, rng, 8, sign=sign))


def test_projection_reads_the_cached_cells():
    fam = M3Z2_BLOCKS
    alg = fam.algebra
    for m in itertools.islice(alg.elements(), 0, None, 7):
        assert fam.project(m, (1, 2), (2,)) == alg.add(
            fam.project(m, 1, 2), fam.project(m, 2, 2)
        )
        for i, j in itertools.product(fam.labels(), repeat=2):
            assert fam.contains(m, i, j) == (fam.project(m, i, j) == m)


@pytest.mark.parametrize("fam", [M2GF4, IdempotentFamily.matrix_units(MatrixAlgebra(Zmod(12), 4))])
def test_words_never_fall_back_to_matrix_products(fam, monkeypatch):
    ctx = Context(fam)
    rng = random.Random(7)
    upper = random_word(ctx, rng, 6, sign=1)
    mixed = random_word(ctx, rng, 6)
    expected = [st_eval(mixed), u_normal_form(upper)]
    scaled = Word(Context(fam, scale=scalar(fam.algebra.scalar_ring, 2)), mixed.letters)
    expected.append(st_eval(scaled))

    def refuse(*args):
        raise AssertionError("dense matrix arithmetic on the word path")

    monkeypatch.setattr(MatrixAlgebra, "mul", refuse)
    monkeypatch.setattr(MatrixAlgebra, "add", refuse)
    assert [st_eval(mixed), u_normal_form(upper), st_eval(scaled)] == expected
