import itertools
import random

import pytest

from sforge import (
    GF,
    DiagonalElement,
    IdempotentFamily,
    MatrixAlgebra,
    NotInvertible,
    Zmod,
    enumerate_gl,
    gauss_decompose,
    lift_to_st,
    presentation_relation_check,
    sample_gl,
    st_eval,
)
from sforge.words import support_sign


def _pair_scan_unit_count(alg):
    """Count invertibles by scanning for a two-sided inverse, no unit test."""
    els = list(alg.elements())
    count = 0
    for m in els:
        if any(
            alg.mul(m, v) == alg.one and alg.mul(v, m) == alg.one for v in els
        ):
            count += 1
    return count


def _f2_rank(mask_rows, width):
    rows = list(mask_rows)
    rank = 0
    for c in range(width):
        bit = 1 << c
        pivot = next((r for r in range(rank, len(rows)) if rows[r] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r] & bit:
                rows[r] ^= rows[rank]
        rank += 1
    return rank


def test_gl_order_m2_f2():
    alg = MatrixAlgebra(Zmod(2), 2)
    assert sum(1 for _ in enumerate_gl(alg)) == 6
    assert _pair_scan_unit_count(alg) == 6


def test_gl_order_m2_z4():
    alg = MatrixAlgebra(Zmod(4), 2)
    assert sum(1 for _ in enumerate_gl(alg)) == 96
    assert _pair_scan_unit_count(alg) == 96


def test_gl_order_m3_f2():
    alg = MatrixAlgebra(Zmod(2), 3)
    got = sum(1 for _ in enumerate_gl(alg))
    # independent oracle: full-rank 0/1 matrices by xor row reduction
    full_rank = 0
    for bits in itertools.product(range(8), repeat=3):
        if _f2_rank(bits, 3) == 3:
            full_rank += 1
    assert got == full_rank == 168


def test_identity_and_transvection_decompose_trivially(m4f3):
    alg = m4f3.algebra
    fac = gauss_decompose(m4f3, alg.one)
    assert fac.check(alg.one)
    assert st_eval(fac.word()) == alg.one
    assert fac.d == DiagonalElement.identity(m4f3)
    t = alg.add(alg.one, alg.unit_matrix(0, 2, 1))
    fac = gauss_decompose(m4f3, t)
    assert fac.check(t)
    assert st_eval(fac.word()) == t
    assert fac.d == DiagonalElement.identity(m4f3)


def test_random_decompositions_m4_f3(m4f3, rng):
    alg = m4f3.algebra
    for _ in range(300):
        g = sample_gl(alg, rng)
        fac = gauss_decompose(m4f3, g)
        assert fac.check(g)
        prod = alg.mul(st_eval(fac.word()), fac.d.embed())
        assert prod == g
        assert support_sign(fac.w_plus) in (0, 1)
        assert support_sign(fac.w_minus) in (0, -1)
        assert support_sign(fac.w_plus2) in (0, 1)


def test_unitriangular_elements_lift_to_pure_words(m4f3, rng):
    alg = m4f3.algebra
    base = alg.base
    for _ in range(100):
        g = [[base.zero] * 4 for _ in range(4)]
        for r in range(4):
            g[r][r] = base.one
            for c in range(r + 1, 4):
                g[r][c] = base.element(rng.randrange(3))
        g = tuple(tuple(row) for row in g)
        w, d = lift_to_st(m4f3, g)
        assert d == DiagonalElement.identity(m4f3)
        assert support_sign(w) in (0, 1)
        assert st_eval(w) == g


def test_decomposition_over_field_extension(rng):
    alg = MatrixAlgebra(GF(2, [1, 1, 1]), 2)
    fam = IdempotentFamily.matrix_units(alg)
    count = 0
    for g in enumerate_gl(alg):
        fac = gauss_decompose(fam, g)
        assert fac.check(g)
        count += 1
    assert count == (16 - 1) * (16 - 4)  # |GL(2, F_4)|


def test_decomposition_respects_blocked_families(rng):
    alg = MatrixAlgebra(Zmod(2), 4)
    fam = IdempotentFamily(alg, [[0, 1], [2], [3]])
    for _ in range(100):
        g = sample_gl(alg, rng)
        fac = gauss_decompose(fam, g)
        assert fac.check(g)
        for w in (fac.w_plus, fac.w_minus, fac.w_plus2):
            for L in w.letters:
                assert len(L.a) == len(fam.cells(L.i, L.j))


def test_exhaustive_decomposition_m2_z4():
    alg = MatrixAlgebra(Zmod(4), 2)
    fam = IdempotentFamily.matrix_units(alg)
    seen = 0
    for g in enumerate_gl(alg):
        fac = gauss_decompose(fam, g)
        assert fac.check(g)
        seen += 1
    assert seen == 96


def test_singular_elements_are_rejected(m4f3):
    with pytest.raises(NotInvertible):
        gauss_decompose(m4f3, m4f3.algebra.zero)
    with pytest.raises(NotInvertible):
        gauss_decompose(m4f3, m4f3.idempotent(1))


def test_presentation_relations_exhaustive_m2_f2():
    alg = MatrixAlgebra(Zmod(2), 2)
    fam = IdempotentFamily.matrix_units(alg)
    report = presentation_relation_check(fam, 1)
    assert report["checked"] == 6
    assert report["violation_count"] == 0
    assert report["max_pairs"] <= 3
    assert report["singular_skipped"] == 16 - 6


def test_presentation_relations_sampled_m2_z4(rng):
    alg = MatrixAlgebra(Zmod(4), 2)
    fam = IdempotentFamily.matrix_units(alg)
    report = presentation_relation_check(fam, 1, rng=rng, samples=400, word_samples=300)
    assert report["violation_count"] == 0
    assert report["checked"] > 0
    assert report["diagonal_words"] > 0


def test_factorization_json_is_reloadable(m4f3, rng):
    g = sample_gl(m4f3.algebra, rng)
    blob = gauss_decompose(m4f3, g).to_json()
    assert set(blob) == {"w_plus", "w_minus", "w_plus2", "d"}
