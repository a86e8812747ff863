import collections
import itertools
import random

import pytest

from sforge import (
    GF,
    Context,
    DiagonalElement,
    IdempotentFamily,
    MatrixAlgebra,
    NotInvertible,
    Word,
    Zmod,
    enumerate_gl,
    gauss_decompose,
    lift_to_st,
    presentation_relation_check,
    sample_gl,
    st_eval,
)
from sforge.gauss import GaussFactorization, _corner_candidates, _field_pivot_cells
from sforge.words import Letter, support_sign


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


def _position_loop_candidates(fam, i, j, rng=None, samples=None):
    """The corner candidates as positional loops build them: the identity
    off the sorted positions of blocks i and j, those filled row by row."""
    alg = fam.algebra
    base = alg.base
    sup = sorted(fam.support(i) + fam.support(j))

    def assemble(fill):
        rows = [[base.zero] * alg.n for _ in range(alg.n)]
        for p in range(alg.n):
            if p not in sup:
                rows[p][p] = base.one
        it = iter(fill)
        for r in sup:
            for c in sup:
                rows[r][c] = next(it)
        return tuple(map(tuple, rows))

    k = len(sup) ** 2
    if rng is None:
        return [assemble(fill) for fill in itertools.product(base.elements(), repeat=k)]
    pool = list(base.elements())
    return [assemble([rng.choice(pool) for _ in range(k)]) for _ in range(samples)]


def test_presentation_relations_exhaustive_m2_f2():
    alg = MatrixAlgebra(Zmod(2), 2)
    fam = IdempotentFamily.matrix_units(alg)
    report = presentation_relation_check(fam, 1)
    assert report["checked"] == 6
    assert report["violation_count"] == 0
    assert report["max_pairs"] <= 3
    assert report["singular_skipped"] == 16 - 6
    # interleaved blocks: the candidates are those of the positional loops
    fam = IdempotentFamily(MatrixAlgebra(Zmod(2), 3), [[0, 2], [1]])
    got = list(_corner_candidates(fam, 1, 2))
    assert len(got) == 2 ** 9
    assert got == _position_loop_candidates(fam, 1, 2)


def test_presentation_relations_sampled_m2_z4(rng):
    alg = MatrixAlgebra(Zmod(4), 2)
    fam = IdempotentFamily.matrix_units(alg)
    report = presentation_relation_check(fam, 1, rng=rng, samples=400, word_samples=300)
    assert report["violation_count"] == 0
    assert report["checked"] > 0
    assert report["diagonal_words"] > 0
    # interleaved blocks: the same seeded draws as the positional loops
    fam = IdempotentFamily(MatrixAlgebra(Zmod(4), 3), [[0, 2], [1]])
    got = list(_corner_candidates(fam, 1, 2, rng=random.Random(11), samples=50))
    assert got == _position_loop_candidates(fam, 1, 2, rng=random.Random(11), samples=50)


def test_factorization_json_is_reloadable(m4f3, rng):
    g = sample_gl(m4f3.algebra, rng)
    blob = gauss_decompose(m4f3, g).to_json()
    assert set(blob) == {"w_plus", "w_minus", "w_plus2", "d"}


# The dense Gauss of earlier versions, kept as the oracle for the block-value
# one: every block projection is cut back to an n x n matrix and multiplied
# with MatrixAlgebra.mul, and the stray pieces are moved by conjugating
# their st images.  It shares only the greedy field pivot with the library,
# and feeds it every entry of g mapped into each residue field, where the
# library maps only the entries that pivot reads: the chosen cells must agree.


def _dense_pivot(fam, g, t, J):
    base = fam.algebra.base
    rowsP = sorted(p for j in J for p in fam.support(j))
    colsT = list(fam.support(t))
    fields = [f for f, _ in base.residue_fields()]
    chosen = collections.defaultdict(set)
    for field, proj in base.residue_fields():
        M = tuple(tuple(proj(x) for x in row) for row in g)
        for cell in _field_pivot_cells(field, M, rowsP, colsT):
            chosen[cell].add(field)
    return fam.to_matrix(
        [
            base.combine_residues([f.one if f in chosen[cell] else f.zero for f in fields])
            if cell in chosen
            else base.zero
            for cell in fam.cells(t, J)
        ],
        t,
        J,
    )


def _dense_cut(fam, m, I, J):
    return fam.to_matrix(fam.project(m, I, J), I, J)


def _dense_row_letters(fam, t, J, x):
    out = []
    for j in J:
        v = fam.project(x, t, j)
        if not fam.is_zero(v):
            out.append(Letter(t, j, v))
    return out


def _dense_col_letters(fam, t, J, y):
    out = []
    for j in J:
        v = fam.project(y, j, t)
        if not fam.is_zero(v):
            out.append(Letter(j, t, v))
    return out


def _dense_block_step(fam, g, t, J):
    alg = fam.algebra
    eJ = alg.zero
    for j in J:
        eJ = alg.add(eJ, fam.idempotent(j))
    a = _dense_pivot(fam, g, t, J)
    g1 = alg.mul(g, alg.add(alg.one, a))
    delta = fam.project(g1, J, J)
    delta_inv = fam.to_matrix(fam.corner_inv(delta, J), J, J)
    delta = fam.to_matrix(delta, J, J)
    delta_full = alg.add(delta, alg.sub(alg.one, eJ))
    b = alg.neg(alg.mul(delta_inv, _dense_cut(fam, g1, J, t)))
    u = fam.project(alg.mul(g1, alg.add(alg.one, b)), t, t)
    u_inv = fam.to_matrix(fam.corner_inv(u, t), t, t)
    u = fam.to_matrix(u, t, t)
    c = alg.mul(_dense_cut(fam, g1, t, J), delta_inv)
    upper2 = alg.neg(alg.mul(u, alg.mul(a, delta_inv)))
    lower = alg.neg(alg.mul(delta, alg.mul(b, u_inv)))
    return (
        _dense_row_letters(fam, t, J, c),
        _dense_col_letters(fam, t, J, lower),
        _dense_row_letters(fam, t, J, upper2),
        u,
        delta_full,
    )


def _dense_decompose_rec(fam, g, t):
    alg = fam.algebra
    n = fam.n
    if t == n:
        return [], [], [], {n: _dense_cut(fam, g, n, n)}
    J = tuple(j for j in fam.labels() if j > t)
    t_plus, t_minus, t_plus2, u, delta_full = _dense_block_step(fam, g, t, J)
    v_plus, v_minus, v_plus2, dcomp = _dense_decompose_rec(fam, delta_full, t + 1)
    ctx = Context(fam)
    w_vp = Word(ctx, v_plus)
    w_all = Word(ctx, v_plus + v_minus + v_plus2)
    conj2 = alg.mul(
        st_eval(w_all.inverse()), alg.mul(st_eval(Word(ctx, t_plus2)), st_eval(w_all))
    )
    conjm = alg.mul(
        st_eval(w_vp.inverse()), alg.mul(st_eval(Word(ctx, t_minus)), st_eval(w_vp))
    )
    dcomp[t] = u
    return (
        t_plus + v_plus,
        _dense_col_letters(fam, t, J, conjm) + v_minus,
        v_plus2 + _dense_row_letters(fam, t, J, conj2),
        dcomp,
    )


def _assert_matches_dense(fam, g):
    p1, m1, p2, dcomp = _dense_decompose_rec(fam, g, 1)
    fac = gauss_decompose(fam, g)
    assert fac.w_plus.letters == tuple(p1)
    assert fac.w_minus.letters == tuple(m1)
    assert fac.w_plus2.letters == tuple(p2)
    assert fac.d == DiagonalElement(fam, [fam.project(dcomp[t], t, t) for t in fam.labels()])


@pytest.mark.parametrize(
    "base, n, count",
    [(Zmod(4), 2, 96), (Zmod(2), 3, 168), (GF(2, [1, 1, 1]), 2, 180)],
    ids=["GL2-Z4", "GL3-F2", "GL2-F4"],
)
def test_gauss_matches_the_dense_reference_exhaustively(base, n, count):
    fam = IdempotentFamily.matrix_units(MatrixAlgebra(base, n))
    seen = 0
    for g in enumerate_gl(fam.algebra):
        _assert_matches_dense(fam, g)
        seen += 1
    assert seen == count


DENSE_SAMPLED = {
    "M4-GF9-units": (GF(3, [1, 0, 1]), 4, None),
    "M4-Z2-[[0,1],[2],[3]]": (Zmod(2), 4, [[0, 1], [2], [3]]),
    "M5-Z4-[[0],[1,2],[3,4]]": (Zmod(4), 5, [[0], [1, 2], [3, 4]]),
    "M6-Z4-[[0,1],[2,3],[4,5]]": (Zmod(4), 6, [[0, 1], [2, 3], [4, 5]]),
    # block 2 sits on both sides of block 3, so J = (2, 3) interleaves
    "M4-Z4-[[1],[0,3],[2]]": (Zmod(4), 4, [[1], [0, 3], [2]]),
    # two residue fields, so the pivot is a CRT lift of two field choices
    "M5-Z12-[[0,1],[2],[3,4]]": (Zmod(12), 5, [[0, 1], [2], [3, 4]]),
}


@pytest.mark.parametrize("name", sorted(DENSE_SAMPLED))
def test_gauss_matches_the_dense_reference_on_samples(name):
    base, n, blocks = DENSE_SAMPLED[name]
    alg = MatrixAlgebra(base, n)
    fam = IdempotentFamily.matrix_units(alg) if blocks is None else IdempotentFamily(alg, blocks)
    rng = random.Random(name)
    for _ in range(60):
        _assert_matches_dense(fam, sample_gl(alg, rng))


@pytest.mark.parametrize(
    "fam",
    [
        IdempotentFamily.matrix_units(MatrixAlgebra(GF(3, [1, 0, 1]), 4)),
        IdempotentFamily(MatrixAlgebra(Zmod(4), 6), [[0, 1], [2, 3], [4, 5]]),
    ],
    ids=["M4-GF9-units", "M6-Z4-[[0,1],[2,3],[4,5]]"],
)
def test_gauss_uses_dense_arithmetic_only_in_its_final_check(fam, monkeypatch):
    """No n x n product, sum or inverse outside the final check, whose one
    st_eval is the only one; corner inverses are the pivot corner of each
    of the n - 1 steps and each of the n diagonal blocks, once."""
    alg = fam.algebra
    rng = random.Random(3)
    elements = [sample_gl(alg, rng) for _ in range(20)]
    calls = collections.Counter()
    in_check = []

    def counted(name, original):
        def wrapper(self, *args):
            calls[name if self is alg else "corner " + name, bool(in_check)] += 1
            return original(self, *args)

        return wrapper

    for name in ("mul", "add", "inv"):
        monkeypatch.setattr(MatrixAlgebra, name, counted(name, getattr(MatrixAlgebra, name)))
    original_check = GaussFactorization.check

    def check(self, g):
        in_check.append(g)
        try:
            return original_check(self, g)
        finally:
            in_check.pop()

    monkeypatch.setattr(GaussFactorization, "check", check)
    original_st_eval = st_eval

    def counted_st_eval(w):
        calls["st_eval", bool(in_check)] += 1
        return original_st_eval(w)

    monkeypatch.setattr("sforge.gauss.st_eval", counted_st_eval)
    for g in elements:
        before = calls.copy()
        gauss_decompose(fam, g)
        made = calls - before
        assert made["st_eval", True] == 1 and made["st_eval", False] == 0
        assert made["corner inv", False] == 2 * fam.n - 1 and made["corner inv", True] == 0
    assert calls["mul", True] == len(elements)
    assert calls["mul", False] == calls["add", False] == 0
    assert calls["inv", False] == calls["inv", True] == 0
